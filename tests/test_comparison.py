"""Fairness comparison (Problem 2; Algorithms 2–3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comparison import _is_reversal, compare, compare_with_indices
from repro.core.cube import UnfairnessCube
from repro.core.groups import Group
from repro.exceptions import AlgorithmError

from tests.helpers import make_cube


class TestReversalPredicate:
    def test_strict_reversal(self):
        assert _is_reversal(0.9, 0.1, overall1=0.1, overall2=0.9)

    def test_same_direction_is_not_reversal(self):
        assert not _is_reversal(0.2, 0.8, overall1=0.1, overall2=0.9)

    def test_breakdown_tie_against_strict_overall_counts(self):
        # Table 12 lists Chicago (0.062 / 0.062) against an ordered overall.
        assert _is_reversal(0.5, 0.5, overall1=0.1, overall2=0.9)

    def test_overall_tie_with_breakdown_difference_counts(self):
        assert _is_reversal(0.6, 0.4, overall1=0.5, overall2=0.5)

    def test_double_tie_is_not_reversal(self):
        assert not _is_reversal(0.5, 0.5, overall1=0.3, overall2=0.3)


class TestCompare:
    def make_cube_with_known_reversal(self):
        groups = [Group({"gender": "Male"}), Group({"gender": "Female"})]
        queries = ["q0"]
        locations = ["l0", "l1", "l2"]
        # Overall: male mean 0.2 < female mean 0.5; at l2 the order flips.
        values = np.array(
            [
                [[0.1, 0.1, 0.4]],  # male
                [[0.6, 0.7, 0.2]],  # female
            ]
        )
        return UnfairnessCube(groups, queries, locations, values), groups

    def test_detects_the_reversed_location(self):
        cube, (male, female) = self.make_cube_with_known_reversal()
        report = compare(cube, "group", male, female, "location")
        assert report.reversed_members == ["l2"]

    def test_overall_values(self):
        cube, (male, female) = self.make_cube_with_known_reversal()
        report = compare(cube, "group", male, female, "location")
        assert report.overall_r1 == pytest.approx(0.2)
        assert report.overall_r2 == pytest.approx(0.5)

    def test_rows_cover_all_breakdown_members(self):
        cube, (male, female) = self.make_cube_with_known_reversal()
        report = compare(cube, "group", male, female, "location")
        assert [row.member for row in report.rows] == ["l0", "l1", "l2"]

    def test_row_for_lookup(self):
        cube, (male, female) = self.make_cube_with_known_reversal()
        report = compare(cube, "group", male, female, "location")
        assert report.row_for("l2").reversed_vs_overall
        with pytest.raises(AlgorithmError):
            report.row_for("l99")

    def test_breakdown_members_with_missing_side_are_skipped(self):
        cube, (male, female) = self.make_cube_with_known_reversal()
        values = cube.values.copy()
        values[0, 0, 1] = np.nan  # male undefined at l1
        holey = UnfairnessCube(cube.groups, cube.queries, cube.locations, values)
        report = compare(holey, "group", male, female, "location")
        assert [row.member for row in report.rows] == ["l0", "l2"]


class TestCompareValidation:
    def test_equal_members_rejected(self, cube):
        group = cube.groups[0]
        with pytest.raises(AlgorithmError, match="must differ"):
            compare(cube, "group", group, group, "location")

    def test_member_not_in_dimension_rejected(self, cube):
        with pytest.raises(AlgorithmError, match="not a member"):
            compare(cube, "group", Group({"gender": "zz"}), cube.groups[0], "query")

    def test_breakdown_must_differ_from_dimension(self, cube):
        with pytest.raises(AlgorithmError, match="must differ"):
            compare(cube, "group", cube.groups[0], cube.groups[1], "group")

    def test_unknown_dimension_rejected(self, cube):
        with pytest.raises(AlgorithmError, match="unknown"):
            compare(cube, "time", "a", "b", "group")


class TestIndexBackedAlgorithm:
    @settings(max_examples=20)
    @given(seed=st.integers(0, 1_000))
    def test_matches_cube_based_compare(self, seed):
        cube = make_cube(4, 3, 4, seed=seed)
        r1, r2 = cube.groups[0], cube.groups[2]
        direct = compare(cube, "group", r1, r2, "location")
        indexed = compare_with_indices(cube, "group", r1, r2, "location")
        assert direct.overall_r1 == pytest.approx(indexed.overall_r1)
        assert direct.overall_r2 == pytest.approx(indexed.overall_r2)
        assert direct.reversed_members == indexed.reversed_members
        for left, right in zip(direct.rows, indexed.rows):
            assert left.value_r1 == pytest.approx(right.value_r1)
            assert left.value_r2 == pytest.approx(right.value_r2)

    def test_counts_accesses(self, cube):
        report = compare_with_indices(
            cube, "group", cube.groups[0], cube.groups[1], "location"
        )
        assert report.stats.sorted_accesses > 0
        assert report.stats.random_accesses > 0

    @pytest.mark.parametrize(
        "dimension,breakdown",
        [
            ("group", "query"),
            ("group", "location"),
            ("query", "group"),
            ("query", "location"),
            ("location", "group"),
            ("location", "query"),
        ],
    )
    def test_all_six_instances_agree(self, cube, dimension, breakdown):
        domain = cube.domain(dimension)
        r1, r2 = domain[0], domain[1]
        direct = compare(cube, dimension, r1, r2, breakdown)
        indexed = compare_with_indices(cube, dimension, r1, r2, breakdown)
        assert direct.reversed_members == indexed.reversed_members
