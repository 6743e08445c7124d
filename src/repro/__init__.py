"""repro — reproduction of Miller, Peng & Xu,
*Parallel Graph Decompositions Using Random Shifts* (SPAA 2013).

Quick start::

    from repro.graphs import grid_2d
    from repro.core import decompose

    result = decompose(grid_2d(100, 100), beta=0.05, seed=0)
    print(result.summary())

``decompose`` is the unified entry point: it dispatches on the graph type
(unweighted ``CSRGraph`` vs ``WeightedCSRGraph``), selects any registered
``method`` (``"auto"`` picks the paper's algorithm for the graph kind), and
validates per-method ``**options`` against the method registry.  Batched
multi-seed or multi-graph runs go through its companion::

    from repro.core import decompose_many

    batch = decompose_many(grid_2d(100, 100), beta=0.05, seeds=8)
    print(batch.aggregate())          # mean/std of cut fraction, radius, ...

With more than one worker available, ``decompose_many`` runs its batch on
the shared-memory batch runtime, which keeps the graphs resident and
streams requests to persistent workers; it can also be driven directly::

    from repro.runtime import DecompositionPool

    with DecompositionPool(grid_2d(100, 100)) as pool:
        result = pool.decompose("0", beta=0.05, seed=0)

Long-lived workloads go one layer up: the decomposition service
(:mod:`repro.serve`, CLI ``repro serve`` / ``repro request``) fronts a
pool with a content-addressed graph store, a memoizing result cache
(decompositions are derandomized, so warm hits are byte-identical), and
in-flight request coalescing::

    from repro.serve import ServeClient, serve_background

    with serve_background(max_workers=4) as server:
        with ServeClient(*server.address) as client:
            digest = client.upload(grid_2d(100, 100))
            result = client.decompose(digest, beta=0.05, seed=0)

Package layout (see DESIGN.md for the full inventory):

- :mod:`repro.core` — the decomposition engine, method registry, the
  paper's algorithm and baselines, verification;
- :mod:`repro.runtime` — the shared-memory batch runtime (resident graphs,
  persistent worker pools, throughput measurement);
- :mod:`repro.serve` — the decomposition service over it (async TCP
  server, content-addressed store, memoizing cache, blocking client);
- :mod:`repro.graphs`, :mod:`repro.rng`, :mod:`repro.bfs`, :mod:`repro.pram`
  — the substrates it runs on;
- :mod:`repro.lowstretch`, :mod:`repro.spanners`, :mod:`repro.embeddings`,
  :mod:`repro.solvers`, :mod:`repro.blockdecomp`, :mod:`repro.oracles` — the
  applications the paper motivates;
- :mod:`repro.telemetry` — metrics registry and tracing spans (the serve
  layer's ``metrics`` op, ``repro request --trace``, ``repro trace``).

Library logging follows the stdlib convention: every module logs through
``logging.getLogger(__name__)`` under the ``repro`` root, which carries a
``NullHandler`` — importing the package never configures logging or prints
to stderr.  Applications opt in with ``logging.basicConfig()`` (or the
CLI's ``--verbose``).
"""

import logging as _logging

from repro._version import __version__
from repro.core.engine import (
    BatchResult,
    PartitionResult,
    decompose,
    decompose_many,
)

# Stdlib library-logging convention: silent unless the application
# configures handlers (the CLI's --verbose does).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__all__ = [
    "__version__",
    "decompose",
    "decompose_many",
    "PartitionResult",
    "BatchResult",
]
