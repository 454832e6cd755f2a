"""Measure protocols, measure metadata, and the measure registry.

Two families of measures exist, mirroring the paper's two site types:

* **Ranked-list measures** (``RANKED_LIST``; search engines, §3.2) compare
  two users' result lists and return a distance in ``[0, 1]``; higher means
  more different, hence more unfair.  Implementations: Kendall Tau and
  Jaccard.
* **Group-ranking measures** (``GROUP_RANKING``; marketplaces, §3.3) score a
  *group* against its comparable groups inside one ranking of workers.
  Implementations: EMD on relevance histograms, Exposure deviation, and the
  FA*IR ranked-group-fairness test.

The registry maps the paper's measure names to constructors **plus
metadata** — family, option schema, and which site type defaults to the
measure — so everything downstream (the unfairness engines, the service's
validation tables, ``GET /v1/schema``, the CLI help) is generated from one
place.  Registering a new measure here makes it immediately addressable by
name everywhere; no other layer hard-codes measure names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence, runtime_checkable

from ...exceptions import MeasureError
from ..rankings import RankedList

__all__ = [
    "GROUP_RANKING",
    "RANKED_LIST",
    "ComponentInfo",
    "GroupRankingMeasure",
    "MeasureInfo",
    "MeasureOption",
    "RankedListMeasure",
    "Registry",
    "available_measures",
    "default_measure_for_site",
    "family_for_site",
    "filter_options",
    "get_measure",
    "measure_info",
    "measures_for_family",
    "register_measure",
    "unregister_measure",
]

RANKED_LIST = "ranked_list"
"""Family of measures comparing two ranked lists (search engines, §3.2)."""

GROUP_RANKING = "group_ranking"
"""Family of measures scoring one group inside one ranking (§3.3)."""

FAMILIES = (RANKED_LIST, GROUP_RANKING)


@runtime_checkable
class RankedListMeasure(Protocol):
    """A distance between two ranked lists, in ``[0, 1]``."""

    name: str

    def __call__(self, left: RankedList, right: RankedList) -> float: ...


@runtime_checkable
class GroupRankingMeasure(Protocol):
    """A score for one group against its comparables in one ranking.

    ``group_members`` are the assessed group's items present in the
    ranking; ``comparable_members`` maps each populated comparable group's
    name to its items.  Higher values mean more unfair.
    """

    name: str

    def group_value(
        self,
        ranking: RankedList,
        group_members: Sequence[str],
        comparable_members: Mapping[str, Sequence[str]],
    ) -> float: ...


@dataclass(frozen=True)
class MeasureOption:
    """One constructor option a measure accepts, for schema generation."""

    name: str
    type: str
    default: object = None
    description: str = ""
    choices: tuple[str, ...] | None = None

    def describe(self) -> dict:
        entry: dict = {
            "name": self.name,
            "type": self.type,
            "description": self.description,
        }
        if self.default is not None:
            entry["default"] = self.default
        if self.choices is not None:
            entry["choices"] = list(self.choices)
        return entry


def filter_options(
    options: Sequence[MeasureOption], candidates: Mapping[str, object]
) -> dict:
    """Keep only the candidate kwargs ``options`` declares, dropping ``None``.

    The unfairness engines collect every option their signature offers
    (``bins``, ``denominator``, ``penalty``, …) and let a measure's declared
    schema decide what reaches its constructor, so one engine serves any
    measure of its family without knowing the option sets; what-if
    interventions filter one option bag the same way.
    """
    names = {option.name for option in options}
    return {
        key: value
        for key, value in candidates.items()
        if key in names and value is not None
    }


@dataclass(frozen=True, kw_only=True)
class ComponentInfo:
    """One registered component — a measure or an intervention — with the
    name, description and option schema ``GET /v1/schema`` publishes."""

    name: str
    description: str = ""
    options: tuple[MeasureOption, ...] = ()

    def describe(self) -> dict:
        """The ``GET /v1/schema`` entry for this component."""
        return {
            "name": self.name,
            "description": self.description,
            "options": [option.describe() for option in self.options],
        }


class Registry:
    """Case-insensitive name → record map: the one registry shape.

    ``kind`` names the component in errors; ``record`` is the record type
    :meth:`register` builds (its own checks run after the duplicate check).
    """

    def __init__(self, kind: str, record: type[ComponentInfo]) -> None:
        self.kind = kind
        self.record = record
        self._records: dict[str, ComponentInfo] = {}

    def register(self, name: str, **fields: object) -> None:
        key = name.lower()
        if key in self._records:
            raise MeasureError(f"{self.kind} {name!r} is already registered")
        self._records[key] = self.record(name=key, **fields)

    def unregister(self, name: str) -> None:
        self._records.pop(name.lower(), None)

    def info(self, name: str):
        """The record for ``name``; :class:`MeasureError` on a miss."""
        try:
            return self._records[name.lower()]
        except KeyError:
            raise MeasureError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        """Every registered name, sorted."""
        return sorted(self._records)


@dataclass(frozen=True, kw_only=True)
class MeasureInfo(ComponentInfo):
    """Everything the registry knows about one measure."""

    factory: Callable[..., object] = field(compare=False)
    family: str | None = None
    default_for: tuple[str, ...] = ()
    """Site types (``"taskrabbit"`` / ``"google"``) whose datasets default
    to this measure when a request names none."""

    def __post_init__(self) -> None:
        if self.family is not None and self.family not in FAMILIES:
            raise MeasureError(
                f"family must be one of {FAMILIES}, got {self.family!r}"
            )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "family": self.family,
            **super().describe(),
            "default_for": list(self.default_for),
        }


_MEASURES = Registry("measure", MeasureInfo)


def register_measure(
    name: str,
    factory: Callable[..., object],
    family: str | None = None,
    description: str = "",
    options: Sequence[MeasureOption] = (),
    default_for: Sequence[str] = (),
) -> None:
    """Register a measure constructor under ``name`` (case-insensitive).

    ``family`` declares which engine can run the measure; a measure
    registered without one is addressable by :func:`get_measure` but no
    engine will accept it (the family check is how a ranked-list measure is
    kept out of a marketplace request with a clear 422).
    """
    _MEASURES.register(
        name,
        factory=factory,
        family=family,
        description=description,
        options=tuple(options),
        default_for=tuple(default_for),
    )


def unregister_measure(name: str) -> None:
    """Remove a registered measure (test cleanup for dynamic registration)."""
    _MEASURES.unregister(name)


def measure_info(name: str) -> MeasureInfo:
    """The metadata record for ``name``; :class:`MeasureError` on a miss."""
    return _MEASURES.info(name)


def get_measure(name: str, **options: object) -> object:
    """Instantiate a registered measure by name.

    Raises :class:`MeasureError` with the list of known names on a miss.
    """
    return measure_info(name).factory(**options)


def available_measures() -> list[str]:
    """Names of all registered measures."""
    return _MEASURES.names()


def measures_for_family(family: str) -> list[str]:
    """Names of the registered measures in one family, sorted."""
    return [name for name in _MEASURES.names() if measure_info(name).family == family]


def default_measure_for_site(site: str) -> str:
    """The measure a site type defaults to, from registry metadata.

    Exactly one registered measure should claim each site type via
    ``default_for``; with several, the alphabetically first wins (so the
    answer is at least deterministic), and with none the site type is
    unservable — a loud error beats a silent guess.
    """
    for name in available_measures():
        if site in measure_info(name).default_for:
            return name
    raise MeasureError(
        f"no registered measure declares itself the default for site "
        f"{site!r}; register one with default_for=({site!r},)"
    )


def family_for_site(site: str) -> str | None:
    """The measure family a site type's datasets run (via its default)."""
    return measure_info(default_measure_for_site(site)).family
