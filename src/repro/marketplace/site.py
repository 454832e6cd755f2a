"""The marketplace site: availability, search, and ranking.

:class:`TaskRabbitSite` glues the worker population to the scoring model and
exposes what the real site exposes — ``search(job, city)`` returning the
ranked workers *available* for the query, capped at the paper's 50 results.

Availability is stratified: for each query a fixed number of workers per
demographic profile (:data:`AVAILABILITY_QUOTA`, 50 in total) is drawn from
the city pool, varying per query but holding the per-ranking composition
constant.  Keeping the composition fixed means the sampling noise of the
group-level measures is identical across cities and jobs, so measured
differences reflect the ranking bias rather than who happened to be around.

The true scores are available to the simulator (and to ablations) but, like
the real site, are *not* included in crawl output unless requested.
"""

from __future__ import annotations

from ..core.rankings import RankedList
from ..data.schema import WorkerProfile
from ..exceptions import DataError
from ..stats.rng import derive
from .catalog import CITIES, category_of
from .scoring import ScoringModel
from .workers import generate_population

__all__ = ["TaskRabbitSite", "RESULT_CAP", "AVAILABILITY_QUOTA"]

RESULT_CAP = 50
"""Maximum workers returned per query (the paper's crawl observed 50)."""

#: Workers available per query, by (gender, ethnicity) profile.  Sums to 52
#: — effectively the paper's 50-result pages — with shares tracking the
#: population among the demographically labeled (≈70% male, ≈64% white)
#: plus two workers whose pictures defied labeling.  Small minority counts
#: (a handful of Asian workers per page) match what the paper's crawls
#: observed and keep the distribution measures responsive: a small group's
#: *positions* move visibly under bias instead of being averaged away
#: inside a large within-group histogram.
AVAILABILITY_QUOTA: dict[tuple[str, str], int] = {
    ("Male", "White"): 24,
    ("Male", "Black"): 7,
    ("Male", "Asian"): 4,
    ("Female", "White"): 8,
    ("Female", "Black"): 4,
    ("Female", "Asian"): 3,
    ("Unknown", "Unknown"): 2,
}


class TaskRabbitSite:
    """A deterministic simulated marketplace.

    Parameters
    ----------
    seed:
        Root seed for both the population and the scoring model.
    bias_scale:
        Forwarded to :class:`~repro.marketplace.scoring.ScoringModel`;
        ``0.0`` gives an unbiased site for ablation runs.
    """

    def __init__(self, seed: int = 7, bias_scale: float = 1.0) -> None:
        self.seed = seed
        self.population: dict[str, list[WorkerProfile]] = generate_population(seed)
        self.scoring = ScoringModel(seed, bias_scale=bias_scale)

    @property
    def cities(self) -> tuple[str, ...]:
        """All supported cities."""
        return CITIES

    def workers_in(self, city: str) -> list[WorkerProfile]:
        """The worker pool of one city."""
        try:
            return list(self.population[city])
        except KeyError:
            raise DataError(f"unknown city {city!r}") from None

    def all_workers(self) -> list[WorkerProfile]:
        """Every worker on the site (the paper's 3,311 unique taskers)."""
        return [worker for pool in self.population.values() for worker in pool]

    def _available_workers(self, job: str, city: str) -> list[WorkerProfile]:
        """Draw the stratified availability sample for one query.

        For each demographic profile, :data:`AVAILABILITY_QUOTA` workers are
        chosen (without replacement, deterministically per query) from the
        city pool.  Workers who still offer everything are always eligible;
        a worker with an explicit ``offerings`` set is eligible only when it
        covers the queried job.
        """
        pool = self.workers_in(city)
        chosen: list[WorkerProfile] = []
        for (gender, ethnicity), quota in AVAILABILITY_QUOTA.items():
            members = [
                worker
                for worker in pool
                if worker.attributes.get("gender") == gender
                and worker.attributes.get("ethnicity") == ethnicity
                and worker.offers(job)
            ]
            if len(members) <= quota:
                chosen.extend(members)
                continue
            rng = derive(self.seed, "availability", city, job, gender, ethnicity)
            picks = rng.choice(len(members), size=quota, replace=False)
            chosen.extend(members[int(index)] for index in sorted(picks))
        if not chosen:
            raise DataError(f"no workers available for {job!r} in {city!r}")
        return chosen

    def search(
        self, job: str, city: str, limit: int = RESULT_CAP, with_scores: bool = False
    ) -> RankedList:
        """Rank the city's workers for ``job``; return the top ``limit``.

        ``job`` may be a concrete job type or a whole category (the paper's
        TaskRabbit queries address job categories).  Ties break on worker id
        so rankings are fully deterministic.
        """
        category_of(job)  # validates the job name
        pool = self._available_workers(job, city)
        scored = sorted(
            ((self.scoring.raw_score(worker, job, city), worker) for worker in pool),
            key=lambda pair: (-pair[0], pair[1].worker_id),
        )
        top = scored[:limit]
        items = [worker.worker_id for _, worker in top]
        scores = None
        if with_scores:
            # Min-max normalize the displayed scores per query so they live in
            # [0, 1] without the clipping ties that a hard clamp would create.
            raw_values = [raw for raw, _ in top]
            low, high = min(raw_values), max(raw_values)
            span = (high - low) or 1.0
            scores = {
                worker.worker_id: (raw - low) / span for raw, worker in top
            }
        return RankedList(items, scores)
