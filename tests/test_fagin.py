"""The threshold algorithm vs the exhaustive baseline (Problem 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cube import UnfairnessCube
from repro.core.fagin import naive_top_k, top_k
from repro.exceptions import AlgorithmError

from tests.helpers import make_cube


class TestAgreementWithNaive:
    @pytest.mark.parametrize("dimension", ["group", "query", "location"])
    @pytest.mark.parametrize("order", ["most", "least"])
    def test_matches_naive_on_dense_cube(self, cube, dimension, order):
        k = 2
        fagin = top_k(cube, dimension, k, order=order)
        naive = naive_top_k(cube, dimension, k, order=order)
        assert fagin.keys() == naive.keys()
        assert fagin.values() == pytest.approx(naive.values())

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 6),
        dims=st.tuples(st.integers(2, 6), st.integers(2, 5), st.integers(2, 5)),
    )
    def test_matches_naive_on_random_cubes(self, seed, k, dims):
        cube = make_cube(*dims, seed=seed)
        for order in ("most", "least"):
            fagin = top_k(cube, "group", k, order=order)
            naive = naive_top_k(cube, "group", k, order=order)
            assert fagin.values() == pytest.approx(naive.values())
            assert fagin.keys() == naive.keys()

    def test_matches_naive_with_missing_cells(self):
        cube = make_cube(5, 4, 4, seed=1)
        values = cube.values.copy()
        values[1, 0, 0] = np.nan
        values[3, 2, 1] = np.nan
        holey = UnfairnessCube(cube.groups, cube.queries, cube.locations, values)
        fagin = top_k(holey, "group", 3)
        naive = naive_top_k(holey, "group", 3)
        assert fagin.keys() == naive.keys()
        assert fagin.values() == pytest.approx(naive.values())


class TestResults:
    def test_entries_are_sorted_best_first(self, cube):
        result = top_k(cube, "group", 4, order="most")
        assert result.values() == sorted(result.values(), reverse=True)

    def test_least_order_sorted_ascending(self, cube):
        result = top_k(cube, "group", 4, order="least")
        assert result.values() == sorted(result.values())

    def test_k_clamped_to_domain(self, cube):
        result = top_k(cube, "group", 99)
        assert len(result.entries) == len(cube.groups)

    def test_values_are_true_aggregates(self, cube):
        result = top_k(cube, "group", 1)
        key, value = result.entries[0]
        assert value == pytest.approx(cube.aggregate(groups=[key]))


class TestEarlyTermination:
    def test_early_stop_on_skewed_cube(self):
        # One group dominates everywhere: the threshold fires quickly.
        cube = make_cube(30, 4, 4, seed=2)
        values = cube.values * 0.3
        values[0, :, :] = 0.99
        skewed = UnfairnessCube(cube.groups, cube.queries, cube.locations, values)
        result = top_k(skewed, "group", 1)
        assert result.early_stopped
        assert result.rounds < len(cube.groups)
        assert result.entries[0][0] == cube.groups[0]

    def test_no_early_stop_with_missing_cells(self):
        cube = make_cube(6, 3, 3, seed=3)
        values = cube.values.copy()
        values[2, 1, 1] = np.nan
        holey = UnfairnessCube(cube.groups, cube.queries, cube.locations, values)
        result = top_k(holey, "group", 2)
        assert not result.early_stopped

    def test_access_stats_recorded(self, cube):
        result = top_k(cube, "group", 2)
        assert result.stats.sorted_accesses > 0
        assert result.stats.random_accesses > 0

    def test_fagin_saves_random_accesses_vs_full_scan(self):
        cube = make_cube(40, 5, 5, seed=4)
        values = cube.values * 0.2
        values[:3, :, :] += 0.7
        skewed = UnfairnessCube(cube.groups, cube.queries, cube.locations, values)
        result = top_k(skewed, "group", 3)
        full_scan = 40 * 5 * 5
        assert result.early_stopped
        assert result.stats.random_accesses < full_scan


class TestValidation:
    def test_rejects_nonpositive_k(self, cube):
        with pytest.raises(AlgorithmError, match="positive"):
            top_k(cube, "group", 0)

    def test_rejects_unknown_order(self, cube):
        with pytest.raises(AlgorithmError, match="order"):
            top_k(cube, "group", 1, order="middle")

    def test_rejects_unknown_dimension(self, cube):
        with pytest.raises(Exception):
            top_k(cube, "time", 1)

    def test_rejects_mismatched_family(self, cube):
        from repro.core.indices import build_family

        family = build_family(cube, "query")
        with pytest.raises(AlgorithmError, match="family"):
            top_k(cube, "group", 1, family=family)

    def test_naive_validates_too(self, cube):
        with pytest.raises(AlgorithmError):
            naive_top_k(cube, "group", -1)
