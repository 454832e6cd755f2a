"""Seeded request streams for the F-Box service benchmark.

Every request is drawn lazily from a ``random.Random`` seeded by
``(workload, seed, client)``, so one seed always gives each client the
same sequence and a fast host can never run out of requests.  The draws
come from the ``paper_taskrabbit`` preset itself (its cities, cells, and
crawled rankings), so every request addresses a defined cube cell.

Two workloads, both closed loop with two clients on one keep-alive
connection each:

* ``audit_sweep`` — both clients send an audit mix (50% quantify with
  k in [1, 1000], 25% compare of random city pairs, 15% batch of three
  quantifies, 10% whatif split between ``fair`` and ``exposure_lp``);
  the key space dwarfs the cache, so reads reach the core.
* ``crawl_ingest`` — on two shards, client 0 posts batches of eight
  perturbed re-crawled rankings, client 1 polls 24 fixed dashboard panels
  whose working set fits the result cache.  The panels are answered on
  the front from the owning worker's published segments, and every write
  invalidates them.  Routed reads are left out: waiting
  behind an ingest on the owning worker made their latency bimodal and
  the workload's figures swing by half between runs.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Iterator

DATASET = "paper_tr"
SCENARIO = "paper_taskrabbit"
MEASURES = ("emd", "exposure")
DIMENSIONS = ("group", "query", "location")
ORDERS = ("most", "least")
GROUPS = ("gender=Female", "gender=Male", "ethnicity=White")
BATCH_OBSERVATIONS = 8
PANEL_PAIRS = 6
# One audit round: 50% quantify, 25% compare, 15% batch, 10% whatif.
AUDIT_DECK = ["quantify"] * 10 + ["compare"] * 5 + ["batch"] * 3 + ["fair", "exposure_lp"]

READ, WRITE = "read", "write"


class Corpus:
    """The facts about the preset that requests are drawn from: its crawled
    observations in ``POST /observations`` form."""

    def __init__(self, observations: list[dict]) -> None:
        self.observations = sorted(
            observations, key=lambda o: (o["query"], o["location"])
        )
        self.cells = [(o["query"], o["location"]) for o in self.observations]
        self.cities = sorted({location for _, location in self.cells})
        self.panels = dashboard_panels(self.cities)

    @classmethod
    def from_dataset(cls, dataset) -> "Corpus":
        from repro.service.ingest import encode_observation

        return cls([encode_observation(o) for o in dataset.observations()])


def quantify(measure: str, dimension: str, order: str, k: int) -> tuple[str, dict]:
    return "/v1/quantify", {
        "dataset": DATASET,
        "measure": measure,
        "dimension": dimension,
        "order": order,
        "k": k,
    }


def compare(measure: str, r1: str, r2: str) -> tuple[str, dict]:
    return "/v1/compare", {
        "dataset": DATASET,
        "measure": measure,
        "dimension": "location",
        "r1": r1,
        "r2": r2,
        "breakdown": "query",
    }


def batch(items: list[tuple[str, str, str, int]]) -> tuple[str, dict]:
    return "/v1/batch", {
        "requests": [
            {"op": "quantify", **quantify(*item)[1]} for item in items
        ]
    }


def whatif(intervention: str, group: str, cell: tuple[str, str]) -> tuple[str, dict]:
    query, location = cell
    return "/v1/whatif", {
        "dataset": DATASET,
        "group": group,
        "query": query,
        "location": location,
        "intervention": intervention,
    }


def observations(batch_id: str, items: list[dict]) -> tuple[str, dict]:
    return "/v1/observations", {
        "dataset": DATASET,
        "batch_id": batch_id,
        "observations": items,
    }


def dashboard_panels(cities: list[str]) -> list[tuple[str, dict]]:
    """12 quantify panels (3 dimensions x 2 orders x 2 measures, k=5) and
    12 compare panels (6 fixed city pairs x 2 measures)."""
    pairs = [(cities[2 * i], cities[2 * i + 1]) for i in range(PANEL_PAIRS)]
    return [
        quantify(measure, dimension, order, 5)
        for measure in MEASURES
        for dimension in DIMENSIONS
        for order in ORDERS
    ] + [compare(measure, r1, r2) for measure in MEASURES for r1, r2 in pairs]


def _random_quantify_item(rng: Random) -> tuple[str, str, str, int]:
    return (
        rng.choice(MEASURES),
        rng.choice(DIMENSIONS),
        rng.choice(ORDERS),
        rng.randint(1, 1000),
    )


def _perturbed(observation: dict, rng: Random) -> dict:
    """A re-crawled ranking: the crawled one with two adjacent swaps."""
    ranking = list(observation["ranking"])
    for _ in range(2):
        if len(ranking) > 1:
            index = rng.randrange(len(ranking) - 1)
            ranking[index], ranking[index + 1] = ranking[index + 1], ranking[index]
    return {
        "query": observation["query"],
        "location": observation["location"],
        "ranking": ranking,
    }


def _panel_reader(corpus: Corpus, rng: Random) -> Iterator:
    while True:
        yield (READ, *rng.choice(corpus.panels))


def _dealt(rng: Random, deck: list[str]) -> Iterator[str]:
    """Request kinds in exact proportions: the deck, reshuffled each round."""
    while True:
        round_ = list(deck)
        rng.shuffle(round_)
        yield from round_


def _auditor(corpus: Corpus, rng: Random) -> Iterator:
    for kind in _dealt(rng, AUDIT_DECK):
        if kind == "quantify":
            yield READ, *quantify(*_random_quantify_item(rng))
        elif kind == "compare":
            r1, r2 = rng.sample(corpus.cities, 2)
            yield READ, *compare(rng.choice(MEASURES), r1, r2)
        elif kind == "batch":
            yield READ, *batch([_random_quantify_item(rng) for _ in range(3)])
        else:
            yield READ, *whatif(kind, rng.choice(GROUPS), rng.choice(corpus.cells))


def writer(corpus: Corpus, rng: Random, prefix: str, perturb: bool) -> Iterator:
    """Observation batches with unique ids; ``perturb=False`` re-posts the
    crawled rankings unchanged (a re-crawl that found nothing new).

    Batches walk the cells in one fixed rotation, so every seed touches the
    same cells in the same order and ingest work does not vary with the
    seed; the seed picks the perturbations."""
    cells = len(corpus.observations)
    for number in itertools.count():
        start = (number * BATCH_OBSERVATIONS) % cells
        items = [
            corpus.observations[(start + offset) % cells]
            for offset in range(BATCH_OBSERVATIONS)
        ]
        if perturb:
            items = [_perturbed(item, rng) for item in items]
        yield WRITE, *observations(f"{prefix}-{number}", items)


def _crawler(corpus: Corpus, rng: Random) -> Iterator:
    return writer(corpus, rng, "crawl", perturb=True)


WORKLOADS = {
    "audit_sweep": {"shards": 0, "clients": (_auditor, _auditor)},
    "crawl_ingest": {"shards": 2, "clients": (_crawler, _panel_reader)},
}


def client_requests(workload: str, corpus: Corpus, seed: int, client: int) -> Iterator:
    """Client ``client``'s endless ``(kind, path, payload)`` sequence."""
    rng = Random(f"{workload}/{seed}/{client}")
    return WORKLOADS[workload]["clients"][client](corpus, rng)


def recrawl(corpus: Corpus) -> Iterator:
    """The unchanged re-crawl batches: the warm-up write of every workload
    and the writes after a read workload."""
    return writer(corpus, Random(0), "recrawl", perturb=False)


def probes(corpus: Corpus) -> list[tuple[str, dict]]:
    """Fixed requests whose answers are checked against the oracle."""
    cells = corpus.cells[:: max(1, len(corpus.cells) // 3)][:3]
    return (
        list(corpus.panels)
        + [
            quantify(measure, dimension, "most", 1000)
            for measure in MEASURES
            for dimension in DIMENSIONS
        ]
        + [batch([("emd", "location", "least", 37), ("exposure", "query", "most", 3)])]
        + [
            whatif(intervention, group, cell)
            for intervention in ("fair", "exposure_lp")
            for group, cell in zip(GROUPS, cells)
        ]
    )
