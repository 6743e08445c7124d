"""The unified decomposition engine: ``decompose`` and ``decompose_many``.

``decompose(graph, beta, method=..., **options)`` is the single entry point
for every decomposition algorithm:

- it dispatches on the *graph type* — a plain
  :class:`~repro.graphs.csr.CSRGraph` routes to the unweighted methods, a
  :class:`~repro.graphs.weighted.WeightedCSRGraph` to the weighted ones —
  with ``method="auto"`` picking the paper's algorithm for each kind;
- it resolves the method through the :mod:`~repro.core.registry`, validating
  per-method ``**options`` against the registered spec so unknown methods,
  unknown options and out-of-domain values all fail fast with messages that
  list the valid choices;
- it always returns a :class:`PartitionResult`, weighted runs included
  (verification routes through :func:`~repro.core.verify.verify_decomposition`,
  which skips the unweighted-only hop invariant for weighted inputs).

``decompose_many`` is the batched companion: it fans one configuration out
across seeds and/or graphs — in process, or on the shared-memory batch
runtime (:mod:`repro.runtime`) when more than one worker is available,
where graphs are loaded into ``multiprocessing.shared_memory`` once and
workers attach zero-copy — and returns the per-run results together with
aggregate mean/std statistics.  Because every run is keyed by an explicit
integer seed, pooled runs are bit-identical to in-process ones (pinned by
``tests/test_conformance.py``); repetition loops in benchmarks and the
CLI's ``--reps`` are thin wrappers over it.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

# Importing the implementation modules populates the method registry.
import repro.core.ldd_bfs  # noqa: F401
import repro.core.ldd_blelloch  # noqa: F401
import repro.core.ldd_exact  # noqa: F401
import repro.core.ldd_sequential  # noqa: F401
import repro.core.ldd_uniform  # noqa: F401
import repro.core.weighted  # noqa: F401
from repro.bfs.kernels import resolve_kernel, use_kernel
from repro.core.decomposition import Decomposition, PartitionTrace
from repro.core.registry import MethodSpec, get_method, method_names
from repro.core.verify import VerificationReport, verify_decomposition
from repro.core.weighted import WeightedDecomposition
from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.graphs.weighted import WeightedCSRGraph
from repro.rng.seeding import SeedLike

__all__ = [
    "PartitionResult",
    "BatchRun",
    "BatchResult",
    "decompose",
    "decompose_many",
    "graph_kind",
]

#: ``method="auto"`` resolves to the paper's algorithm for each graph kind.
DEFAULT_METHODS = {"unweighted": "bfs", "weighted": "dijkstra"}


@dataclass(frozen=True, eq=False)
class PartitionResult:
    """A decomposition, how it was computed, and (optionally) its checks."""

    decomposition: Decomposition | WeightedDecomposition
    trace: PartitionTrace
    report: VerificationReport | None = None
    #: Telemetry span records collected where the decomposition actually
    #: ran (pool workers ship theirs home here); empty unless the request
    #: carried a tracing context.  Not part of result equality/identity.
    spans: tuple = ()

    def summary(self) -> dict[str, float | str]:
        """Merged one-line summary for logs and benchmark tables."""
        out: dict[str, float | str] = {"method": self.trace.method}
        out.update(self.decomposition.summary())
        out["rounds"] = float(self.trace.rounds)
        out["work"] = float(self.trace.work)
        out["depth"] = float(self.trace.depth)
        return out


def graph_kind(graph: CSRGraph) -> str:
    """``"weighted"`` for :class:`WeightedCSRGraph` inputs, else ``"unweighted"``.

    The subclass check runs first — a weighted graph *is a* CSR graph, but
    must dispatch to the weighted methods.
    """
    if isinstance(graph, WeightedCSRGraph):
        return "weighted"
    if isinstance(graph, CSRGraph):
        return "unweighted"
    raise ParameterError(
        f"expected a CSRGraph or WeightedCSRGraph, got {type(graph).__name__}"
    )


def _resolve(graph: CSRGraph, method: str | None) -> MethodSpec:
    """Map (graph type, method name) to a spec, or fail listing choices."""
    return resolve_method(graph_kind(graph), method)


def resolve_method(kind: str, method: str | None) -> MethodSpec:
    """Map (graph kind, method name) to a spec, or fail listing choices."""
    if method is None or method == "auto":
        method = DEFAULT_METHODS[kind]
    spec = get_method(method)
    if not spec.supports(kind):
        raise ParameterError(
            f"method {method!r} does not support {kind} graphs; "
            f"methods for {kind} graphs: {method_names(kind)}"
        )
    return spec


def decompose(
    graph: CSRGraph,
    beta: float,
    *,
    method: str = "auto",
    seed: SeedLike = None,
    validate: bool = False,
    **options: object,
) -> PartitionResult:
    """Compute a ``(β, O(log n / β))`` low-diameter decomposition.

    Parameters
    ----------
    graph:
        Undirected graph; a :class:`~repro.graphs.weighted.WeightedCSRGraph`
        routes to the weighted methods, any other
        :class:`~repro.graphs.csr.CSRGraph` to the unweighted ones.
    beta:
        Target fraction of cut edges (cut weight, for weighted graphs),
        ``0 < β ≤ 1``.
    method:
        A registered method name (see
        :func:`repro.core.registry.method_names`), or ``"auto"`` for the
        paper's algorithm matching the graph kind (``bfs`` / ``dijkstra``).
    seed:
        Seed / generator for reproducibility.
    validate:
        Run :func:`~repro.core.verify.verify_decomposition` on the result
        (deterministic invariants raise on failure) and attach the report.
    **options:
        Per-method options, validated against the registered spec — e.g.
        ``tie_break="permutation"`` for ``bfs``, ``randomize_starts=False``
        for ``sequential``, ``kernel="native"`` on any unweighted method to
        force the compiled BFS engine.  Unknown names raise
        :class:`~repro.errors.ParameterError` listing the accepted options.

    Examples
    --------
    >>> from repro.graphs import grid_2d
    >>> from repro.core import decompose
    >>> res = decompose(grid_2d(30, 30), beta=0.1, seed=7)
    >>> res.decomposition.num_pieces > 1
    True
    >>> res.decomposition.cut_fraction() < 0.5
    True
    """
    spec = _resolve(graph, method)
    kwargs = spec.bind(options)
    # The kernel option is consumed here, not forwarded: the engine applies
    # it as ambient context so implementations (and the BFS layers beneath
    # them) pick it up without a `kernel=` parameter in every signature.
    kernel = kwargs.pop("kernel", None)
    if kernel is not None:
        resolve_kernel(kernel)  # fail fast: native requested but not built
    with use_kernel(kernel):
        decomposition, trace = spec.func(graph, beta, seed=seed, **kwargs)
    report = None
    if validate:
        # Methods without a shift certificate record delta_max = NaN; the
        # report then skips the radius-vs-certificate comparison.
        delta_max = None if math.isnan(trace.delta_max) else trace.delta_max
        report = verify_decomposition(
            decomposition, beta=beta, delta_max=delta_max
        )
    return PartitionResult(
        decomposition=decomposition, trace=trace, report=report
    )


# ---------------------------------------------------------------------------
# batched execution
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class BatchRun:
    """One run of a batch: which graph, which seed, and the result."""

    graph_index: int
    seed: int
    result: PartitionResult

    def summary(self) -> dict[str, float | str]:
        """The run's :meth:`PartitionResult.summary` plus batch coordinates."""
        out = self.result.summary()
        out["graph_index"] = float(self.graph_index)
        out["seed"] = float(self.seed)
        out["wall_time_s"] = float(self.result.trace.wall_time_s)
        return out


#: Statistics aggregated (mean/std over runs) by BatchResult.aggregate.
_AGGREGATE_KEYS = (
    "cut_fraction",
    "max_radius",
    "num_pieces",
    "rounds",
    "wall_time_s",
)


@dataclass(frozen=True, eq=False)
class BatchResult:
    """All runs of one :func:`decompose_many` call plus their aggregate."""

    runs: tuple[BatchRun, ...]

    @property
    def results(self) -> list[PartitionResult]:
        """The per-run :class:`PartitionResult` objects, in task order."""
        return [run.result for run in self.runs]

    def summaries(self) -> list[dict[str, float | str]]:
        """Per-run summary dicts, in task order (pooled or not).

        Cheap to call repeatedly: each decomposition computes its statistics
        once (pooled runs arrive with them computed by the worker), so a
        call only builds the per-run dicts.
        """
        return [run.summary() for run in self.runs]

    def values(self, key: str) -> np.ndarray:
        """One summary statistic across all runs, as a float array."""
        return np.asarray(
            [float(s[key]) for s in self.summaries()], dtype=np.float64
        )

    def aggregate(self) -> dict[str, float]:
        """Mean/std (population) of the headline statistics over all runs."""
        out: dict[str, float] = {"num_runs": float(len(self.runs))}
        for key in _AGGREGATE_KEYS:
            vals = self.values(key)
            out[f"{key}_mean"] = float(vals.mean())
            out[f"{key}_std"] = float(vals.std())
        return out


def _normalise_seeds(seeds: int | Iterable[int]) -> list[int]:
    if isinstance(seeds, (int, np.integer)):
        if seeds <= 0:
            raise ParameterError(f"need at least one seed, got {seeds}")
        return list(range(int(seeds)))
    out = [int(s) for s in seeds]
    if not out:
        raise ParameterError("need at least one seed")
    return out


def _normalise_graphs(graphs) -> list[CSRGraph]:
    if isinstance(graphs, CSRGraph):
        return [graphs]
    out = list(graphs)
    if not out:
        raise ParameterError("need at least one graph")
    for g in out:
        graph_kind(g)  # raises on non-graph entries
    return out


def decompose_many(
    graphs: CSRGraph | Sequence[CSRGraph],
    beta: float,
    *,
    method: str = "auto",
    seeds: int | Iterable[int] = 8,
    validate: bool = False,
    max_workers: int | None = None,
    **options: object,
) -> BatchResult:
    """Fan ``decompose`` out over seeds × graphs and aggregate the results.

    Parameters
    ----------
    graphs:
        One graph or a sequence of graphs; every (graph, seed) pair becomes
        one run, ordered graph-major then seed.
    beta, method, validate, **options:
        As for :func:`decompose`, shared by every run.  ``method="auto"``
        resolves per graph, so mixed weighted/unweighted batches work.
    seeds:
        An integer ``k`` (runs seeds ``0..k−1``) or an explicit iterable of
        integer seeds.  Integer seeds are required — they are what makes the
        pooled execution reproducible and identical to the serial one.
    max_workers:
        Worker bound, ``>= 1``; defaults to the CPU count.  With more than
        one worker and more than one run the batch runs on a
        :class:`~repro.runtime.pool.DecompositionPool` (graphs resident in
        shared memory, persistent workers); otherwise it runs in process.
        If the pool cannot start (no ``/dev/shm``, a sandbox forbidding
        subprocesses) the batch warns once (``RuntimeWarning``) and runs
        in process.

    Returns
    -------
    BatchResult
        Per-run results in task order plus mean/std aggregates.  Task order
        — hence every per-seed summary — is independent of where the runs
        executed, and per-seed results are bit-identical either way.
    """
    graph_list = _normalise_graphs(graphs)
    seed_list = _normalise_seeds(seeds)
    if max_workers is not None and max_workers < 1:
        raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
    # Validate the configuration once, up front: a bad method/option fails
    # here with the registry's message instead of inside N pool workers.
    for graph in graph_list:
        _resolve(graph, method).bind(options)
    tasks = [
        (graph_index, seed)
        for graph_index in range(len(graph_list))
        for seed in seed_list
    ]

    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    workers = min(int(workers), len(tasks))

    results = None
    if workers > 1:
        results = _run_pool(
            graph_list, beta, method, validate, options, tasks, workers
        )
    if results is None:
        results = [
            decompose(
                graph_list[graph_index],
                beta,
                method=method,
                seed=seed,
                validate=validate,
                **options,
            )
            for graph_index, seed in tasks
        ]
    runs = tuple(
        BatchRun(graph_index=gi, seed=seed, result=result)
        for (gi, seed), result in zip(tasks, results)
    )
    return BatchResult(runs=runs)


def _run_pool(
    graphs, beta, method, validate, options, tasks, workers
) -> list[PartitionResult] | None:
    """Run the batch on the shared-memory pool (``None`` = run in process).

    Routes through :class:`repro.runtime.pool.DecompositionPool`: graphs go
    into shared memory once, workers attach once, and each task crosses the
    process boundary as a tiny request.  Infrastructure failures (no
    ``/dev/shm``, a sandbox forbidding subprocesses, a worker killed by the
    OS) warn and return ``None``; exceptions raised by the runs themselves
    always propagate.
    """
    from concurrent.futures.process import BrokenProcessPool

    # Imported lazily: the engine is the runtime's dependency, not the
    # other way round (repro.runtime.pool imports decompose from here).
    from repro.runtime.pool import DecompositionPool, DecompositionRequest

    try:
        # Sequence inputs get the pool's own str(index) keys.
        with DecompositionPool(graphs, max_workers=workers) as pool:
            return pool.run(
                DecompositionRequest(
                    graph_key=str(graph_index),
                    beta=beta,
                    method=method,
                    seed=seed,
                    validate=validate,
                    options=options,
                )
                for graph_index, seed in tasks
            )
    except (BrokenProcessPool, OSError) as exc:
        warnings.warn(
            f"decomposition pool unavailable ({exc!r}); running the batch "
            "in process",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
