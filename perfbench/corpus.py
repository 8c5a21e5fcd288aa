"""``corpus``: a large verifier output clustered under a Focus template.

About 6,000 scenario traces fall into 1,500 identical-event classes
(each class repeated 1–7 times, so dedup has work to do).  Traces are
130–170 events long over a 20-event alphabet, and each class draws from
its own subset of 3–6 events.  They are clustered under the Unordered
template FA over the whole alphabet (Section 4.1).

The first two thirds are clustered cold with ``cluster_traces``; the
rest arrives in batches of 200 through ``extend_clustering`` — the path
behind Cable's ``addtraces``.  Relation, Godin and dedup carry the whole
cost here; semantic, strategies and learners do nothing.
"""

from __future__ import annotations

import random

from common import Samples, clustering_layers, median, own_peak_rss_mb, percentile
from repro.core.nextclosure import build_lattice_nextclosure
from repro.core.trace_clustering import cluster_traces, extend_clustering
from repro.fa.templates import unordered_fa
from repro.lang.events import Event
from repro.lang.traces import Trace
from repro.parallel.relation import clear_relation_caches

ALPHABET = tuple(f"ev{i:02d}" for i in range(20))
NUM_CLASSES = 1500
COLD_FRACTION = 2 / 3
BATCH = 200


def generate_corpus(seed: int) -> list[Trace]:
    """The seeded corpus, in arrival order."""
    rng = random.Random(f"perfbench-corpus/{seed}")
    classes: set[tuple[str, ...]] = set()
    while len(classes) < NUM_CLASSES:
        subset = rng.sample(ALPHABET, rng.randint(3, 6))
        length = rng.randint(130, 170)
        body = subset + [rng.choice(subset) for _ in range(length - len(subset))]
        rng.shuffle(body)
        classes.add(tuple(body))
    # Multiplicities 1..7 in equal shares: 6,000 traces whatever the seed.
    multiplicities = [1 + i % 7 for i in range(NUM_CLASSES)]
    rng.shuffle(multiplicities)
    arrivals = [c for c, m in zip(sorted(classes), multiplicities) for _ in range(m)]
    rng.shuffle(arrivals)
    return [
        Trace(tuple(Event(symbol, ("X",)) for symbol in symbols), trace_id=f"t{i}")
        for i, symbols in enumerate(arrivals)
    ]


def lattice_pairs(clustering) -> set[tuple[frozenset, frozenset]]:
    lattice = clustering.lattice
    return {(lattice.extent(c), lattice.intent(c)) for c in lattice}


class Corpus:
    name = "corpus"

    def __init__(self, seed: int, tmp) -> None:
        self.seed = seed
        self.final = None
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        self.traces = self.cold = self.batches = []  # free the previous corpus first
        traces = generate_corpus(self.seed)
        cut = int(len(traces) * COLD_FRACTION)
        self.traces = traces
        self.cold = traces[:cut]
        self.batches = [traces[i : i + BATCH] for i in range(cut, len(traces), BATCH)]
        self.fa = unordered_fa([f"{symbol}(X)" for symbol in ALPHABET])

    def body(self, samples: Samples):
        clear_relation_caches()
        clustering = samples.call("core.cluster", cluster_traces, self.cold, self.fa)
        first = clustering
        for batch in self.batches:
            clustering = samples.call("core.extend", extend_clustering, clustering, batch)
        return first, clustering

    # ------------------------------------------------------------------ #
    # correctness
    # ------------------------------------------------------------------ #

    def check_pass(self, result) -> tuple[int, list[str]]:
        """Each pass must reach the same clustering as the first."""
        first, final = result
        shape = (first.num_objects, len(first.lattice), final.num_objects, len(final.lattice))
        failures = []
        if final.rejected:
            failures.append(f"{len(final.rejected)} traces rejected by the Unordered FA")
        if self.final is None:
            self.final = final
            self.shape = shape
            self.peak_rss_mb = own_peak_rss_mb()
        elif shape != self.shape:
            failures.append(f"pass reached {shape}, first pass {self.shape}")
        return 1 + len(self.batches), failures

    def final_checks(self) -> tuple[int, list[str]]:
        """Untimed: Godin against NextClosure on the final context, and the
        incremental clustering against one cold clustering of everything."""
        final = self.final
        failures = []
        reference = build_lattice_nextclosure(final.lattice.context)
        if len(reference) != len(final.lattice):
            failures.append(
                f"Godin found {len(final.lattice)} concepts, NextClosure {len(reference)}"
            )
        clear_relation_caches()
        cold = cluster_traces(self.traces, self.fa)
        if [t.key() for t in cold.representatives] != [t.key() for t in final.representatives]:
            failures.append("extended clustering has other classes than a cold one")
        elif cold.class_counts != final.class_counts:
            failures.append("extended clustering counts classes differently")
        elif lattice_pairs(cold) != lattice_pairs(final):
            failures.append("extended lattice differs from the cold lattice")
        return 2, failures

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def end_to_end(self, passes) -> dict[str, tuple[float, int]]:
        colds = [p.samples.total("core.cluster") for p in passes]
        updates = [d for p in passes for d in p.samples.times["core.extend"]]
        rates = [len(p.samples.times["core.extend"]) / p.wall for p in passes]
        walls = [p.wall for p in passes]
        return {
            "first_lattice_s": (median(colds), len(colds)),
            "update_p50_s": (median(updates), len(updates)),
            "session_p50_s": (median(walls), len(walls)),
            "request_p50_ms": (1e3 * percentile(updates, 0.5), len(updates)),
            "request_p90_ms": (1e3 * percentile(updates, 0.9), len(updates)),
            "requests_per_s": (median(rates), len(rates)),
        }

    def per_layer(self, passes) -> tuple[dict[str, tuple[float, int]], dict]:
        out: dict[str, tuple[float, int]] = {}
        n = len(passes)
        clustering_layers(out, passes)
        cold_classes, _, classes, concepts = self.shape
        out["core.lattice.concepts"] = (float(concepts), n)
        out["core.dedup_ratio"] = (cold_classes / len(self.cold), n)
        out["core.extend_s"] = (median(p.samples.total("core.extend") for p in passes), n)
        out["core.godin.insert_s"] = (median(p.recording.wall("godin.insert") for p in passes), n)
        out["core.godin.inserts"] = (
            median(sum(1 for s in p.recording.spans if s.name == "godin.insert") for p in passes),
            n,
        )

        def hit_ratio(p) -> float:
            hits = p.recording.count("relation.cache.hits")
            attempts = hits + p.recording.count("relation.cache.misses")
            return hits / attempts if attempts else 0.0

        out["parallel.relation.cache_hit_ratio"] = (median(hit_ratio(p) for p in passes), n)
        attempts = passes[0].recording.count("relation.cache.hits") + passes[0].recording.count(
            "relation.cache.misses"
        )
        bases = {
            "core.lattice.concepts": f"{classes} objects",
            "core.dedup_ratio": f"{cold_classes} classes / {len(self.cold)} traces",
            "parallel.relation.cache_hit_ratio": f"{int(attempts)} lookups",
        }
        return out, {"bases": bases}

    def teardown(self) -> None:
        pass
