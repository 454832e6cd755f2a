"""Fairness interventions: re-rank one result list, measure what changed.

The quantification layers answer *how unfair is this ranking*; this module
answers *what would repairing it do*.  Two canonical re-rankers from the
fair-ranking literature, both consuming the same ``(ranking, group members,
comparable members)`` triple the group-ranking measures consume:

* :func:`fair_rerank` — FA*IR's greedy top-k construction (Zehlike et al.):
  walk the positions best-to-worst, placing the next-best protected
  candidate whenever the alpha-corrected binomial mtable demands one and
  the overall next-best candidate otherwise.  The output provably satisfies
  the ranked-group-fairness test at **every** prefix while preserving
  within-group order.
* :func:`exposure_lp_rerank` — Singh & Joachims' exposure-optimal ranking:
  solve a linear program over doubly-stochastic matrices minimizing each
  group's deviation from relevance-proportional exposure, decompose the
  optimum into permutations (Birkhoff–von Neumann), and pick the
  best-scoring one.  The original permutation is always a candidate, so the
  result **weakly improves** exposure deviation by construction.

Interventions register in a small registry mirroring the measure registry
(name → applier + option schema), and :func:`apply_intervention` reports the
before/after value of *every* registered group-ranking measure through
:mod:`repro.core.measures.base` — which is what ``POST /v1/whatif`` serves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..exceptions import MeasureError
from .measures.base import (
    GROUP_RANKING,
    ComponentInfo,
    MeasureOption,
    Registry,
    filter_options,
    get_measure,
    measures_for_family,
)
from .measures.exposure import exposure_deviation
from .measures.fair import DEFAULT_ALPHA, adjusted_alpha, mtable
from .rankings import RankedList

__all__ = [
    "InterventionInfo",
    "InterventionResult",
    "apply_intervention",
    "available_interventions",
    "exposure_lp_rerank",
    "fair_rerank",
    "intervention_info",
    "measure_deltas",
    "register_intervention",
]


def _copy(ranking: RankedList) -> RankedList:
    return RankedList(ranking.items, ranking.scores)


# ----------------------------------------------------------------------
# FA*IR greedy re-ranking
# ----------------------------------------------------------------------


def fair_rerank(
    ranking: RankedList,
    protected: Sequence[str],
    p: float | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> RankedList:
    """Greedy FA*IR re-ranking: fair at every prefix, within-group order kept.

    Two queues in original order (protected / everyone else); at each
    position the protected head is placed when the prefix would otherwise
    fall below the alpha-corrected mtable, else whichever head ranked
    better originally.  ``p`` defaults to the protected share of the
    ranking, under which the mtable is always satisfiable (the requirement
    at depth ``n`` sits below the actual protected count for any
    ``alpha < 0.5``), so the guarantee holds at every prefix.
    """
    n = len(ranking)
    if n == 0:
        raise MeasureError("cannot re-rank an empty ranking")
    members = frozenset(protected)
    prot = [item for item in ranking if item in members]
    rest = [item for item in ranking if item not in members]
    if not prot or not rest:
        return _copy(ranking)
    if p is None:
        p = len(prot) / n
    if not 0.0 < p < 1.0:
        return _copy(ranking)
    effective = adjusted_alpha(n, p, alpha)
    table = mtable(n, p, effective) if effective > 0.0 else (0,) * n
    out: list[str] = []
    count = 0
    pi = ri = 0
    for position in range(n):
        if pi < len(prot) and (
            count < table[position]
            or ri >= len(rest)
            or ranking.rank(prot[pi]) < ranking.rank(rest[ri])
        ):
            out.append(prot[pi])
            pi += 1
            count += 1
        else:
            out.append(rest[ri])
            ri += 1
    return RankedList(out, ranking.scores)


# ----------------------------------------------------------------------
# Singh & Joachims exposure LP + Birkhoff decomposition
# ----------------------------------------------------------------------

_LP_UTILITY_WEIGHT = 1e-4
"""Tie-break weight pulling the doubly-stochastic optimum toward placing
relevant items high; small enough never to buy utility with group slack."""

_BVN_TOL = 1e-7
"""Mass below this is solver noise, not decomposition support."""


def _perfect_matching(support: np.ndarray) -> list[int] | None:
    """Kuhn's augmenting paths on the support: ``position -> item`` or None."""
    n = support.shape[0]
    owner = [-1] * n  # position j -> item i

    def assign(item: int, seen: list[bool]) -> bool:
        for position in range(n):
            if support[item, position] and not seen[position]:
                seen[position] = True
                if owner[position] == -1 or assign(owner[position], seen):
                    owner[position] = item
                    return True
        return False

    for item in range(n):
        if not assign(item, [False] * n):
            return None
    return owner


def _birkhoff(matrix: np.ndarray) -> list[tuple[float, list[int]]]:
    """Birkhoff–von Neumann: doubly-stochastic → weighted permutations.

    Repeatedly match on the positive support, peel off the bottleneck
    weight.  Each step zeroes at least one entry, so at most ``n^2``
    rounds; returned weights sum to ~1.
    """
    remaining = matrix.copy()
    n = remaining.shape[0]
    permutations: list[tuple[float, list[int]]] = []
    for _ in range(n * n):
        owner = _perfect_matching(remaining > _BVN_TOL)
        if owner is None:
            break
        theta = min(remaining[owner[j], j] for j in range(n))
        if theta <= _BVN_TOL:
            break
        permutations.append((float(theta), owner))
        for j in range(n):
            remaining[owner[j], j] -= theta
    return permutations


def _exposure_lp_matrix(
    ranking: RankedList,
    group_members: Sequence[str],
    comparable_members: Mapping[str, Sequence[str]],
) -> np.ndarray | None:
    """The doubly-stochastic optimum ``P[item, position]``, or ``None``.

    Each group's constraint bounds ``|exposure share − relevance share|``
    by a slack variable, with both shares normalized over the whole ranking
    so the totals are permutation-invariant constants and the constraint
    stays linear in ``P``.  Relevance comes in two regimes:

    * scored rankings carry item-bound scores, so a group's relevance share
      is a constant target its exposure share must approach;
    * score-less rankings use the rank proxy ``1 − rank/N`` — a *position*
      quantity that moves with ``P`` exactly like exposure does, so the
      constraint bounds the mass of ``P`` against the per-position
      difference ``exposure share − relevance share`` instead.  Fixing the
      proxy at the input ranking's values would chase that ranking's own
      (possibly degraded) relevance profile rather than repairing it.

    ``None`` signals the degenerate cases where the LP has nothing to do
    (zero total relevance) or the solver failed; callers fall back to the
    original ranking.
    """
    n = len(ranking)
    try:
        from scipy.optimize import linprog
    except ImportError as error:  # pragma: no cover - scipy ships in the image
        raise MeasureError(
            "exposure_lp re-ranking requires scipy.optimize"
        ) from error

    items = list(ranking.items)
    index_of = {item: i for i, item in enumerate(items)}
    weights = np.array([1.0 / math.log(position + 2.0) for position in range(n)])
    exposure_share = weights / float(weights.sum())
    scored = ranking.scores is not None
    # Utility (for the tie-break term) is item-bound either way: true scores
    # when present, else the item's rank proxy in the *input* ranking.
    utility = np.array([ranking.relevance(item) for item in items])
    if scored:
        rel_total = float(utility.sum())
    else:
        position_relevance = np.array(
            [1.0 - (position + 1.0) / n for position in range(n)]
        )
        rel_total = float(position_relevance.sum())
    if rel_total <= 0.0:
        return None

    groups: list[np.ndarray] = []
    for members in (group_members, *comparable_members.values()):
        indices = [index_of[m] for m in members if m in index_of]
        if indices:
            mask = np.zeros(n)
            mask[indices] = 1.0
            groups.append(mask)

    cells = n * n
    slack_count = len(groups)
    # Objective: minimize group slacks, tie-break toward utility.
    cost = np.zeros(cells + slack_count)
    cost[:cells] = (-_LP_UTILITY_WEIGHT * np.outer(utility, weights)).ravel()
    cost[cells:] = 1.0

    a_eq = np.zeros((2 * n, cells + slack_count))
    b_eq = np.ones(2 * n)
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0  # item i occupies one position
    for j in range(n):
        a_eq[n + j, j::n][: n] = 1.0  # position j holds one item

    a_ub = np.zeros((2 * slack_count, cells + slack_count))
    b_ub = np.zeros(2 * slack_count)
    for g, mask in enumerate(groups):
        if scored:
            # exposure share is linear in P; relevance share is a constant.
            share_row = (mask[:, None] * exposure_share[None, :]).ravel()
            target = float(utility[mask > 0].sum()) / rel_total
        else:
            # Both shares ride on P: bound their per-position difference.
            difference = exposure_share - position_relevance / rel_total
            share_row = (mask[:, None] * difference[None, :]).ravel()
            target = 0.0
        a_ub[2 * g, :cells] = share_row
        a_ub[2 * g, cells + g] = -1.0
        b_ub[2 * g] = target
        a_ub[2 * g + 1, :cells] = -share_row
        a_ub[2 * g + 1, cells + g] = -1.0
        b_ub[2 * g + 1] = -target

    bounds = [(0.0, 1.0)] * cells + [(0.0, None)] * slack_count
    solution = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    if not solution.success:
        return None
    return solution.x[:cells].reshape(n, n)


def exposure_lp_rerank(
    ranking: RankedList,
    group_members: Sequence[str],
    comparable_members: Mapping[str, Sequence[str]],
    seed: int = 0,
) -> RankedList:
    """Exposure-optimal re-ranking via the Singh & Joachims LP.

    Minimizes, over doubly-stochastic position assignments ``P``, the sum
    of every group's slack from relevance-proportional exposure (the
    assessed group and each comparable each contribute one slack variable),
    with a tiny utility term keeping relevant items high.  The optimum is
    decomposed into permutations (Birkhoff–von Neumann) and the candidate
    with the lowest exposure deviation for the assessed group wins; the
    original permutation always competes, so the deviation can only improve
    or stay.  ``seed`` breaks exact score ties deterministically.
    """
    n = len(ranking)
    if n == 0:
        raise MeasureError("cannot re-rank an empty ranking")
    if not group_members:
        raise MeasureError("the assessed group has no members in this ranking")
    matrix = _exposure_lp_matrix(ranking, group_members, comparable_members)
    if matrix is None:
        return _copy(ranking)
    items = list(ranking.items)

    def deviation(candidate: RankedList) -> float:
        try:
            return exposure_deviation(candidate, group_members, comparable_members)
        except MeasureError:
            return math.inf

    candidates: list[tuple[float, float, int, RankedList]] = []
    for order, (theta, owner) in enumerate(_birkhoff(matrix)):
        candidate = RankedList(
            [items[owner[j]] for j in range(n)], ranking.scores
        )
        candidates.append((deviation(candidate), -theta, order, candidate))
    original = _copy(ranking)
    candidates.append((deviation(original), 0.0, len(candidates), original))

    best_score = min(score for score, _, _, _ in candidates)
    tied = [entry for entry in candidates if entry[0] == best_score]
    tied.sort(key=lambda entry: (entry[1], entry[2]))
    if len(tied) > 1:
        return random.Random(seed).choice(tied)[3]
    return tied[0][3]


# ----------------------------------------------------------------------
# The intervention registry and the what-if report
# ----------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class InterventionInfo(ComponentInfo):
    """One registered intervention: applier plus schema metadata."""

    apply: Callable[..., RankedList] = field(compare=False)


_INTERVENTIONS = Registry("intervention", InterventionInfo)


def register_intervention(
    name: str,
    apply: Callable[..., RankedList],
    description: str = "",
    options: Sequence[MeasureOption] = (),
) -> None:
    """Register a re-ranker under ``name`` (case-insensitive).

    ``apply(ranking, group_members, comparable_members, **options)`` must
    return a re-ranked :class:`RankedList` over the same items.
    """
    _INTERVENTIONS.register(
        name, apply=apply, description=description, options=tuple(options)
    )


def intervention_info(name: str) -> InterventionInfo:
    """The record for ``name``; :class:`MeasureError` on a miss."""
    return _INTERVENTIONS.info(name)


def available_interventions() -> list[str]:
    """Names of all registered interventions."""
    return _INTERVENTIONS.names()


@dataclass(frozen=True)
class InterventionResult:
    """A re-ranked list plus the fairness delta across every measure."""

    intervention: str
    original: RankedList
    reranked: RankedList
    before: Mapping[str, float]
    after: Mapping[str, float]

    def delta(self, measure: str) -> float | None:
        """``after − before`` for one measure (negative = less unfair)."""
        if measure not in self.before or measure not in self.after:
            return None
        return self.after[measure] - self.before[measure]

    @property
    def moved(self) -> int:
        """How many items changed position."""
        return sum(
            1
            for before_item, after_item in zip(
                self.original.items, self.reranked.items
            )
            if before_item != after_item
        )


def measure_deltas(
    original: RankedList,
    reranked: RankedList,
    group_members: Sequence[str],
    comparable_members: Mapping[str, Sequence[str]],
) -> tuple[dict[str, float], dict[str, float]]:
    """Before/after values of every registered group-ranking measure.

    Measures undefined for this cell (a :class:`MeasureError`) are skipped
    rather than failing the report — a what-if on a cell one measure cannot
    score still answers for all the others.
    """
    before: dict[str, float] = {}
    after: dict[str, float] = {}
    for name in measures_for_family(GROUP_RANKING):
        measure = get_measure(name)
        try:
            value_before = measure.group_value(
                original, group_members, comparable_members
            )
            value_after = measure.group_value(
                reranked, group_members, comparable_members
            )
        except MeasureError:
            continue
        before[name] = value_before
        after[name] = value_after
    return before, after


def apply_intervention(
    name: str,
    ranking: RankedList,
    group_members: Sequence[str],
    comparable_members: Mapping[str, Sequence[str]],
    **options,
) -> InterventionResult:
    """Run one registered intervention and report the full measure delta.

    Options outside the intervention's declared schema (or set to ``None``)
    are dropped, so a caller can offer one option bag to any intervention.
    """
    info = intervention_info(name)
    reranked = info.apply(
        ranking, group_members, comparable_members,
        **filter_options(info.options, options),
    )
    before, after = measure_deltas(
        ranking, reranked, group_members, comparable_members
    )
    return InterventionResult(
        intervention=info.name,
        original=ranking,
        reranked=reranked,
        before=before,
        after=after,
    )


def _fair_applier(
    ranking: RankedList,
    group_members: Sequence[str],
    comparable_members: Mapping[str, Sequence[str]],
    p: float | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> RankedList:
    return fair_rerank(ranking, group_members, p=p, alpha=alpha)


register_intervention(
    "fair",
    _fair_applier,
    description=(
        "greedy FA*IR top-k re-ranking: satisfies the ranked-group-fairness "
        "test at every prefix while preserving within-group order"
    ),
    options=(
        MeasureOption(
            "alpha", "number", DEFAULT_ALPHA,
            "significance level of the binomial test, in (0, 0.5)",
        ),
        MeasureOption(
            "p", "number", None,
            "null-hypothesis protected probability; defaults to the group's "
            "share of the ranking",
        ),
    ),
)

register_intervention(
    "exposure_lp",
    exposure_lp_rerank,
    description=(
        "Singh & Joachims exposure-optimal re-ranking: doubly-stochastic LP "
        "toward relevance-proportional group exposure, Birkhoff-decomposed; "
        "weakly improves exposure deviation"
    ),
    options=(
        MeasureOption(
            "seed", "integer", 0,
            "deterministic tie-break among equally good permutations",
        ),
    ),
)
