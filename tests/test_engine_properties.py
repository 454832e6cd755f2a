"""Property-style checks on the search engine's perturbation model."""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measures.jaccard import jaccard_distance
from repro.core.measures.kendall import kendall_tau_distance
from repro.data.schema import SearchUser
from repro.searchengine.engine import GoogleJobsEngine, NoiseConfig
from repro.searchengine.jobs import base_ranking, posting_pool

QUIET = NoiseConfig(
    carry_over=False, ab_testing=False, geolocation=False, infrastructure=False
)

PROFILES = [
    ("Male", "White"),
    ("Male", "Black"),
    ("Male", "Asian"),
    ("Female", "White"),
    ("Female", "Black"),
    ("Female", "Asian"),
]


def _user(gender: str, ethnicity: str, index: int = 0) -> SearchUser:
    return SearchUser(
        f"u-{ethnicity.lower()}-{gender.lower()}-{index}",
        {"gender": gender, "ethnicity": ethnicity},
    )


class TestPerturbationStructure:
    def test_pages_are_permutations_plus_substitutions_from_pool(self):
        engine = GoogleJobsEngine(seed=3, noise=QUIET)
        pool = set(posting_pool("yard work", "London, UK"))
        for gender, ethnicity in PROFILES:
            page = engine.search(_user(gender, ethnicity), "yard work jobs", "London, UK")
            assert set(page.items) <= pool
            assert len(page) == len(base_ranking("yard work", "London, UK"))

    @settings(max_examples=15)
    @given(seed=st.integers(0, 500))
    def test_divergence_tracks_measured_distance(self, seed):
        """Across profiles, calibrated divergence and measured distance from
        the base ranking must be strongly rank-correlated."""
        from scipy.stats import spearmanr

        engine = GoogleJobsEngine(seed=seed, noise=QUIET)
        base = base_ranking("yard work", "London, UK")
        from repro.core.rankings import RankedList

        base_list = RankedList(base)
        divergences, distances = [], []
        for gender, ethnicity in PROFILES:
            values = []
            for index in range(12):
                user = _user(gender, ethnicity, index)
                page = engine.search(user, "yard work jobs", "London, UK")
                values.append(kendall_tau_distance(base_list, page))
            divergences.append(
                engine.divergence(_user(gender, ethnicity), "yard work jobs", "London, UK")
            )
            distances.append(statistics.fmean(values))
        rho, _ = spearmanr(divergences, distances)
        # Spearman over six profile points is quantized to steps of 1/35;
        # with 12 users per profile the correlation is deterministic per
        # seed, and an exhaustive scan of seeds 0–500 bottoms out at
        # rho = 11/35 ≈ 0.314 (seed 140).  Assert just below that floor:
        # the correlation must stay clearly positive at every seed, and
        # typical seeds sit at 0.8–1.0.
        assert rho > 0.3

    def test_same_group_users_get_different_pages(self):
        engine = GoogleJobsEngine(seed=3, noise=QUIET)
        first = engine.search(_user("Female", "White", 0), "yard work jobs", "London, UK")
        second = engine.search(_user("Female", "White", 1), "yard work jobs", "London, UK")
        assert first.items != second.items

    def test_within_group_distance_grows_with_divergence(self):
        """Two White Females should differ more than two Black Males."""
        engine = GoogleJobsEngine(seed=3, noise=QUIET)

        def within(gender, ethnicity):
            a = engine.search(_user(gender, ethnicity, 0), "yard work jobs", "London, UK")
            b = engine.search(_user(gender, ethnicity, 1), "yard work jobs", "London, UK")
            return jaccard_distance(a.item_set(), b.item_set())

        assert within("Female", "White") >= within("Male", "Black")


class TestNoiseConfigIndependence:
    def test_disabling_all_noise_makes_search_execution_independent(self):
        from repro.searchengine.engine import ExecutionContext

        engine = GoogleJobsEngine(seed=3, noise=QUIET)
        user = _user("Female", "White")
        first = engine.search(
            user, "yard work jobs", "London, UK", ExecutionContext(execution=0)
        )
        second = engine.search(
            user, "yard work jobs", "London, UK", ExecutionContext(execution=5)
        )
        assert first.items == second.items

    def test_ab_probability_zero_equals_disabled(self):
        enabled_but_zero = NoiseConfig(
            carry_over=False, geolocation=False, infrastructure=False,
            ab_probability=0.0,
        )
        a = GoogleJobsEngine(seed=3, noise=QUIET)
        b = GoogleJobsEngine(seed=3, noise=enabled_but_zero)
        user = _user("Male", "Asian")
        assert (
            a.search(user, "run errand jobs", "Boston, MA").items
            == b.search(user, "run errand jobs", "Boston, MA").items
        )
