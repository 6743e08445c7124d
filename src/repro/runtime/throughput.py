"""Request-throughput measurement for the batch runtime (experiment RT).

Answers the serving question the runtime exists for: *how many decomposition
requests per second* does each execution strategy sustain against one
resident graph?  Strategies measured:

- ``serial`` — in-process loop (no transport at all; the latency floor for
  one core);
- ``pickle`` — process pool where **every task carries the graph** through
  the pickle stream and ships the full result (graph included) back: the
  naive per-task pickling executor the acceptance criterion compares
  against;
- ``shared`` — the :class:`~repro.runtime.pool.DecompositionPool` runtime:
  graph resident in shared memory, tiny requests, slim results.

Every record carries a digest of the per-seed assignment arrays, so callers
(the RT benchmark, the CLI) can assert all strategies computed bit-identical
decompositions while comparing their speed.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.engine import PartitionResult, decompose
from repro.core.weighted import WeightedDecomposition
from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.runtime.pool import DecompositionPool, DecompositionRequest

__all__ = ["THROUGHPUT_EXECUTORS", "ThroughputRecord", "measure_throughput"]

#: Strategies measure_throughput knows how to run.
THROUGHPUT_EXECUTORS = ("serial", "pickle", "shared")


@dataclass(frozen=True)
class ThroughputRecord:
    """One strategy's measurement over the same request stream."""

    executor: str
    num_requests: int
    seconds: float
    requests_per_sec: float
    #: SHA-1 over the per-seed assignment arrays, in seed order — equal
    #: digests mean bit-identical decompositions across strategies.
    assignments_digest: str

    def speedup_over(self, baseline: "ThroughputRecord") -> float:
        """Requests/sec ratio of this strategy over ``baseline``."""
        if baseline.requests_per_sec <= 0:
            return float("inf")
        return self.requests_per_sec / baseline.requests_per_sec


def _digest(results: Sequence[PartitionResult]) -> str:
    sha = hashlib.sha1()
    for result in results:
        decomposition = result.decomposition
        sha.update(decomposition.center.tobytes())
        if isinstance(decomposition, WeightedDecomposition):
            sha.update(decomposition.radius.tobytes())
        else:
            sha.update(decomposition.hops.tobytes())
    return sha.hexdigest()


def _pickle_task(payload: tuple) -> PartitionResult:
    """Worker for the per-task pickling baseline: the graph rides along."""
    graph, beta, method, seed, options = payload
    return decompose(graph, beta, method=method, seed=seed, **options)


def _run_serial(graph, beta, method, seeds, options, workers):
    return [
        decompose(graph, beta, method=method, seed=seed, **options)
        for seed in seeds
    ]


def _run_pickle(graph, beta, method, seeds, options, workers):
    from concurrent.futures import ProcessPoolExecutor

    payloads = [(graph, beta, method, seed, options) for seed in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_pickle_task, payloads))


def _run_shared(graph, beta, method, seeds, options, workers):
    with DecompositionPool({"g": graph}, max_workers=workers) as pool:
        return pool.run(
            DecompositionRequest(
                graph_key="g",
                beta=beta,
                method=method,
                seed=seed,
                options=options,
            )
            for seed in seeds
        )


_RUNNERS = {
    "serial": _run_serial,
    "pickle": _run_pickle,
    "shared": _run_shared,
}


def measure_throughput(
    graph: CSRGraph,
    beta: float,
    *,
    num_requests: int = 32,
    executors: Sequence[str] = ("pickle", "shared"),
    max_workers: int | None = None,
    method: str = "auto",
    base_seed: int = 0,
    options: Mapping[str, object] | None = None,
    repeats: int = 1,
) -> dict[str, ThroughputRecord]:
    """Time the same request stream under each strategy.

    Every strategy runs requests for seeds ``base_seed .. base_seed +
    num_requests - 1`` against ``graph`` and is timed end to end,
    *including* its pool/segment setup — a serving runtime that cannot
    amortise its own startup does not get to hide it.  With ``repeats > 1``
    each strategy runs that many times and reports its fastest pass (the
    usual min-time discipline: scheduling noise only ever slows a run
    down), with the digest checked identical across passes.

    Returns ``{executor: ThroughputRecord}`` in the order requested.
    Strategy names outside :data:`THROUGHPUT_EXECUTORS` raise
    :class:`~repro.errors.ParameterError`.
    """
    if num_requests < 1:
        raise ParameterError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    if max_workers is not None and max_workers < 1:
        raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
    unknown = [name for name in executors if name not in _RUNNERS]
    if unknown:
        raise ParameterError(
            f"unknown throughput executor(s) {unknown}; "
            f"choices: {list(THROUGHPUT_EXECUTORS)}"
        )
    seeds = list(range(base_seed, base_seed + num_requests))
    opts = dict(options or {})
    records: dict[str, ThroughputRecord] = {}
    for name in executors:
        best: float | None = None
        digest: str | None = None
        for _ in range(repeats):
            start = time.perf_counter()
            results = _RUNNERS[name](
                graph, beta, method, seeds, opts, max_workers
            )
            elapsed = time.perf_counter() - start
            pass_digest = _digest(results)
            if digest is None:
                digest = pass_digest
            elif digest != pass_digest:  # pragma: no cover - determinism bug
                # Deliberately not a ReproError: this is an internal
                # invariant violation, not bad user input — the CLI must
                # crash loudly rather than print a polite exit-2 error.
                raise RuntimeError(
                    f"executor {name!r} produced differing assignments "
                    "across repeat passes"
                )
            if best is None or elapsed < best:
                best = elapsed
        records[name] = ThroughputRecord(
            executor=name,
            num_requests=num_requests,
            seconds=best,
            requests_per_sec=num_requests / best if best > 0 else 0.0,
            assignments_digest=digest,
        )
    return records
