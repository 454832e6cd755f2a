"""Unfairness engines: computing ``d<g,q,l>`` on both site types (§3.2–3.4).

An *engine* turns raw observations into the scalar unfairness of a group for
one ``(query, location)`` pair:

* :class:`SearchEngineUnfairness` implements Equation 1 — the average, over
  the comparable groups ``g'`` of ``g``, of the average pairwise ranked-list
  distance (Kendall Tau or Jaccard) between users of ``g`` and users of
  ``g'``.
* :class:`MarketplaceUnfairness` implements §3.3 — any *group-ranking*
  measure scoring ``g`` against its populated comparable groups inside one
  worker ranking (EMD §3.3.1, exposure deviation §3.3.2, FA*IR, …).

Both engines resolve their measure through the registry in
:mod:`repro.core.measures.base`: the registered family decides which engine
accepts the measure, and the registered option schema decides which of the
engine's constructor knobs (``bins``, ``penalty``, …) reach the measure's
factory.  Registering a new measure of the right family makes it servable
here — and therefore by the query service — with no engine edits.

Both expose the same ``unfairness(group, query, location)`` interface plus
the §3.4 aggregations over sets of queries/locations/groups, so the cube,
index, and algorithm layers are agnostic to the site type.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Protocol, Sequence

from ..data.schema import MarketplaceDataset, SearchDataset
from ..exceptions import DataError, MeasureError
from ..stats.histograms import DEFAULT_BINS
from .attributes import AttributeSchema
from .groups import Group, comparable_groups
from .measures.base import (
    GROUP_RANKING,
    RANKED_LIST,
    filter_options,
    measure_info,
    measures_for_family,
)

__all__ = [
    "UnfairnessEngine",
    "SearchEngineUnfairness",
    "MarketplaceUnfairness",
    "aggregate_unfairness",
]


class UnfairnessEngine(Protocol):
    """The interface every site-specific engine satisfies."""

    schema: AttributeSchema

    def unfairness(self, group: Group, query: str, location: str) -> float:
        """``d<g,q,l>`` — unfairness of ``group`` for one query/location."""
        ...

    def defined_for(self, group: Group, query: str, location: str) -> bool:
        """True when ``d<g,q,l>`` is computable from the observations."""
        ...


def _build_measure(
    measure: str, family: str, site_kind: str, candidates: dict
) -> object:
    """Instantiate ``measure`` via the registry, enforcing its family.

    ``candidates`` holds every option the engine's signature offers; the
    measure's declared option schema filters them, so e.g. ``bins`` never
    reaches the exposure constructor and unknown measures list the right
    family's alternatives in the error.
    """
    info = measure_info(measure)
    if info.family != family:
        raise MeasureError(
            f"{site_kind} engines need a {family} measure; {measure!r} is "
            f"{info.family or 'family-less'} (available: "
            f"{measures_for_family(family)})"
        )
    return info.factory(**filter_options(info.options, candidates))


class SearchEngineUnfairness:
    """Equation 1 on a :class:`~repro.data.schema.SearchDataset`.

    Parameters
    ----------
    dataset:
        Observed per-user result lists.
    schema:
        The protected-attribute schema defining comparable groups.
    measure:
        Any registered ranked-list measure (``"kendall"`` by default) — the
        DIST between two users' ranked lists.
    penalty:
        Kendall ``K^(p)`` neutral-pair penalty (offered to every measure;
        only those declaring the option receive it).
    jaccard_mode:
        ``"distance"`` or ``"index"`` (reaches measures declaring ``mode``).
    measure_options:
        Further options forwarded to the measure's constructor when its
        registered option schema declares them.
    """

    def __init__(
        self,
        dataset: SearchDataset,
        schema: AttributeSchema,
        measure: str = "kendall",
        penalty: float = 0.5,
        jaccard_mode: str = "distance",
        **measure_options,
    ) -> None:
        self.dataset = dataset
        self.schema = schema
        self.measure_name = measure.lower()
        self.measure = _build_measure(
            self.measure_name,
            RANKED_LIST,
            "search-engine",
            {"penalty": penalty, "mode": jaccard_mode, **measure_options},
        )
        self._dist = self.measure

    def _group_distance(
        self, left_users: Sequence[str], right_users: Sequence[str], observation
    ) -> float:
        """avg over (u, u') of DIST(E(u), E(u')) for users of two groups."""
        distances = [
            self._dist(
                observation.results_by_user[left], observation.results_by_user[right]
            )
            for left in left_users
            for right in right_users
        ]
        return statistics.fmean(distances)

    def unfairness(self, group: Group, query: str, location: str) -> float:
        """``d<g,q,l>`` per Equation 1.

        Comparable groups with no recruited users are skipped; if the group
        itself has no users, or no comparable group has any, the value is
        undefined and :class:`DataError` is raised.
        """
        observation = self.dataset.observation(query, location)
        members = self.dataset.members_in_observation(group, observation)
        if not members:
            raise DataError(
                f"group {group} has no users for ({query!r}, {location!r})"
            )
        per_group: list[float] = []
        for other in comparable_groups(group, self.schema):
            other_members = self.dataset.members_in_observation(other, observation)
            if not other_members:
                continue
            per_group.append(self._group_distance(members, other_members, observation))
        if not per_group:
            raise DataError(
                f"group {group} has no populated comparable groups for "
                f"({query!r}, {location!r})"
            )
        return statistics.fmean(per_group)

    def defined_for(self, group: Group, query: str, location: str) -> bool:
        """True when the group and at least one comparable group have users."""
        if not self.dataset.has_observation(query, location):
            return False
        observation = self.dataset.observation(query, location)
        if not self.dataset.members_in_observation(group, observation):
            return False
        return any(
            self.dataset.members_in_observation(other, observation)
            for other in comparable_groups(group, self.schema)
        )


class MarketplaceUnfairness:
    """§3.3 measures on a :class:`~repro.data.schema.MarketplaceDataset`.

    Parameters
    ----------
    dataset:
        Observed worker rankings with worker demographics.
    schema:
        The protected-attribute schema defining comparable groups.
    measure:
        Any registered group-ranking measure: ``"emd"`` (default; average
        EMD between relevance histograms of ``g`` and each comparable
        group), ``"exposure"`` (L1 deviation between exposure share and
        relevance share), ``"fair"`` (FA*IR prefix-failure rate), or
        anything registered since.
    bins:
        Histogram bin count (reaches measures declaring ``bins``).
    exposure_denominator:
        ``"comparables"`` (default) follows §3.3.2's formulas literally
        (the Figure 5 worked example); ``"ranking"`` normalizes shares over
        the whole ranking instead, which is the only reading under which
        the paper's Table 8 can report *unequal* exposure for Male and
        Female.  Reaches measures declaring ``denominator``.
    measure_options:
        Further options forwarded to the measure's constructor when its
        registered option schema declares them.
    """

    def __init__(
        self,
        dataset: MarketplaceDataset,
        schema: AttributeSchema,
        measure: str = "emd",
        bins: int = DEFAULT_BINS,
        exposure_denominator: str = "comparables",
        **measure_options,
    ) -> None:
        self.dataset = dataset
        self.schema = schema
        self.measure_name = measure.lower()
        self.measure = _build_measure(
            self.measure_name,
            GROUP_RANKING,
            "marketplace",
            {
                "bins": bins,
                "denominator": exposure_denominator,
                **measure_options,
            },
        )
        self.bins = bins
        self.exposure_denominator = exposure_denominator

    def ranked_members(
        self, group: Group, query: str, location: str
    ) -> tuple[object, list[str], dict[str, list[str]]]:
        """The ``(ranking, group members, populated comparables)`` triple
        for one cell — the inputs every group-ranking measure (and the
        what-if interventions) consumes.  Raises :class:`DataError` when
        the cell is undefined."""
        observation = self.dataset.observation(query, location)
        ranking = observation.ranking
        members = self.dataset.members_in_ranking(group, ranking)
        if not members:
            raise DataError(
                f"group {group} has no workers ranked for ({query!r}, {location!r})"
            )
        others = {
            other: self.dataset.members_in_ranking(other, ranking)
            for other in comparable_groups(group, self.schema)
        }
        populated = {other.name: ids for other, ids in others.items() if ids}
        if not populated:
            raise DataError(
                f"group {group} has no populated comparable groups for "
                f"({query!r}, {location!r})"
            )
        return ranking, members, populated

    def unfairness(self, group: Group, query: str, location: str) -> float:
        """``d<g,q,l>`` via the configured group-ranking measure."""
        ranking, members, populated = self.ranked_members(group, query, location)
        return self.measure.group_value(ranking, members, populated)

    def defined_for(self, group: Group, query: str, location: str) -> bool:
        """True when the group and at least one comparable group are ranked."""
        if not self.dataset.has_observation(query, location):
            return False
        ranking = self.dataset.observation(query, location).ranking
        if not self.dataset.members_in_ranking(group, ranking):
            return False
        return any(
            self.dataset.members_in_ranking(other, ranking)
            for other in comparable_groups(group, self.schema)
        )


def aggregate_unfairness(
    engine: UnfairnessEngine,
    groups: Iterable[Group],
    queries: Iterable[str],
    locations: Iterable[str],
    skip_undefined: bool = True,
) -> float:
    """§3.4 generalized aggregation: ``avg_{g,q,l} d<g,q,l>``.

    Covers all the paper's notations — ``d<g,Q,L>`` (one group), ``d<G,Q,l>``
    (one location), ``d<G,q,L>`` (one query) — by passing singleton
    collections for the fixed dimensions.

    With ``skip_undefined`` (default), triples where the value is undefined
    (e.g. the group has no members in that ranking) are excluded from the
    average; otherwise they raise :class:`DataError`.
    """
    groups = list(groups)
    queries = list(queries)
    locations = list(locations)
    values: list[float] = []
    for group in groups:
        for query in queries:
            for location in locations:
                if skip_undefined and not engine.defined_for(group, query, location):
                    continue
                values.append(engine.unfairness(group, query, location))
    if not values:
        raise DataError("no defined unfairness values in the requested aggregate")
    return statistics.fmean(values)
