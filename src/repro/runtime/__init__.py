"""Shared-memory batch runtime: load graphs once, decompose many times.

The serving layer the ROADMAP's batching/throughput goals build on:

- :mod:`repro.runtime.shm` — :class:`SharedCSR` / :class:`SharedWeightedCSR`
  place a graph's CSR arrays in ``multiprocessing.shared_memory`` and
  reattach them zero-copy in worker processes;
- :mod:`repro.runtime.pool` — :class:`DecompositionPool` keeps a pool of
  workers attached to the registered graphs and streams tiny
  ``(graph_key, method, seed, options)`` requests to them, returning
  results bit-identical to serial :func:`repro.core.engine.decompose`;
  graphs can be registered/unregistered on the live pool (the
  decomposition service :mod:`repro.serve` builds on this);
- :mod:`repro.runtime.throughput` — request/second measurement comparing
  the runtime against a per-task pickling pool and the in-process loop
  (the ``RT`` benchmark and the CLI's ``bench-throughput`` subcommand).

``decompose_many`` runs its batches on this package's pool whenever more
than one worker is available; see DESIGN.md §6 for the architecture.
"""

from repro.runtime.pool import DecompositionPool, DecompositionRequest
from repro.runtime.shm import (
    SharedCSR,
    SharedGraphDescriptor,
    SharedWeightedCSR,
    attach_shared,
    share_graph,
)
from repro.runtime.throughput import ThroughputRecord, measure_throughput

__all__ = [
    "DecompositionPool",
    "DecompositionRequest",
    "SharedCSR",
    "SharedWeightedCSR",
    "SharedGraphDescriptor",
    "share_graph",
    "attach_shared",
    "ThroughputRecord",
    "measure_throughput",
]
