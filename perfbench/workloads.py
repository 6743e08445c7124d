"""The four served workloads: their inputs, traffic, probes and checks.

Each workload is driven over :class:`repro.serve.AsyncServeClient` from one
asyncio loop in the benchmark process against a ``repro serve`` subprocess.
Inputs are a pure function of ``(workload, seed)``; the server sees only
the generated graphs (as edge-list text) and request seeds.  Closed loops
run a fixed number of operations, sized from ``--seconds`` by a nominal
rate that does not depend on how fast the program is, so a faster commit
does not fill more of the result cache.

A run spreads its operations over several freshly set-up servers, one
after another: a server process's memory layout shifts its timings by up
to a fifth, so a single process per run would make each run one draw of
that layout.
"""

from __future__ import annotations

import asyncio
import hashlib
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.embeddings.hierarchy import hierarchical_decomposition
from repro.errors import ReproError
from repro.graphs.generators import by_name
from repro.graphs.io import write_edge_list
from repro.serve.store import graph_digest

from stats import closed_loop_lags, open_loop_samples, percentile

#: Seconds a single operation may take before it counts as failed; the
#: slowest (a 70x70 hierarchy) takes one or two seconds.
OP_TIMEOUT_S = 30.0


def edge_list_text(graph) -> str:
    """The graph in the edge-list format, as ``upload_text`` sends it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.edges"
        write_edge_list(graph, path)
        return path.read_text()


def array_digest(*arrays) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


def labels_digest(labels) -> str:
    return array_digest(*(np.asarray(level, np.int64) for level in labels))


def direct_digest(graph, beta: float, seed: int) -> str:
    """Digest of an in-process ``repro.decompose`` with the served kernel."""
    result = repro.decompose(graph, beta, seed=seed, kernel="python")
    return array_digest(
        result.decomposition.center, result.decomposition.hops
    )


@dataclass
class Inputs:
    """Everything a run sends, generated from the workload seed."""

    specs: list[str]
    graphs: list
    texts: list[str]
    digests: list[str]
    seeds: list[int]
    hit_seeds: list[int] = field(default_factory=list)
    sample: list[int] = field(default_factory=list)

    def record(self) -> list[dict]:
        return [
            {
                "spec": spec,
                "n": int(graph.num_vertices),
                "m": int(graph.num_edges),
                "payload_bytes": len(text),
            }
            for spec, graph, text in zip(self.specs, self.graphs, self.texts)
        ]


@dataclass
class Observed:
    """What one server's share of the loop observed."""

    #: latency of each operation of the workload's primary stream.
    latencies: list[float] = field(default_factory=list)
    #: latency of each request of a secondary open-loop stream.
    secondary: list[float] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    upload_bytes: int = 0
    upload_s: float = 0.0
    #: (expected digest, served digest) pairs checked after the loop.
    checks: list[tuple[str, str]] = field(default_factory=list)
    #: sampled results the correctness gate compares after the loop.
    kept: dict = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


class Workload:
    name = ""
    why = ""
    loop = "closed"
    beta: float | None = None
    #: nominal operations per second that size a closed loop's op count.
    ops_per_s = 1.0
    #: the fewest operations that support a tail percentile.
    min_ops = 20
    #: highest tail percentile that repeated within a tenth across runs.
    tail_cap = 99.0
    #: requests whose served result is compared with an in-process run.
    sampled = 3

    def n_ops(self, seconds: float) -> int:
        return max(self.min_ops, round(seconds * self.ops_per_s))

    # -- inputs ---------------------------------------------------------
    def inputs(self, seed: int, n_ops: int) -> Inputs:
        raise NotImplementedError

    def _rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([seed, sum(map(ord, self.name))])

    def _build(self, specs, graph_seeds, rng, n_ops, n_hit=0) -> Inputs:
        graphs = [by_name(s, seed=g) for s, g in zip(specs, graph_seeds)]
        base = int(rng.integers(0, 2**30))
        return Inputs(
            specs=list(specs),
            graphs=graphs,
            texts=[edge_list_text(g) for g in graphs],
            digests=[graph_digest(g) for g in graphs],
            hit_seeds=[base + i for i in range(n_hit)],
            seeds=[base + n_hit + i for i in range(n_ops)],
            sample=sorted(
                int(i) for i in rng.choice(n_ops, self.sampled, replace=False)
            ),
        )

    # -- served phases ---------------------------------------------------
    async def setup(self, client, inp: Inputs) -> dict:
        """Uploads and cache fill; returns state the loop needs."""
        for text, expected in zip(inp.texts, inp.digests):
            reply = await client.upload_text(text, "edges")
            if reply["digest"] != expected:
                raise RuntimeError(
                    f"upload digest {reply['digest'][:12]} != graph_digest "
                    f"{expected[:12]}"
                )
        return {}

    def message(self, inp: Inputs, i: int) -> dict:
        """The protocol message of request ``i``."""
        return {
            "op": "decompose", "digest": inp.digests[0], "beta": self.beta,
            "method": "auto", "seed": inp.seeds[i], "validate": False,
            "options": {},
        }

    async def fetch(self, client, inp: Inputs, i: int):
        """Request ``i`` against a server that holds its graph."""
        return await client.decompose(
            inp.digests[0], self.beta, seed=inp.seeds[i]
        )

    async def operation(self, client, inp: Inputs, i: int, out: Observed):
        """One operation of the measured loop."""
        return await self.fetch(client, inp, i)

    async def run(self, clients, state, inp: Inputs, ops, out: Observed):
        """Closed loop over one connection through operations ``ops``:
        send the next operation when the previous one returns."""
        client = clients[0]
        loop = asyncio.get_running_loop()
        out.attempted += len(ops)
        sent, done = [], []
        start = loop.time()
        for i in ops:
            sent.append(loop.time())
            try:
                result = await self.operation(client, inp, i, out)
            except (ReproError, asyncio.TimeoutError):
                out.failed += 1
                result = None
            done.append(loop.time())
            if result is not None and i in inp.sample:
                out.kept[i] = result
        out.wall_s += done[-1] - start
        out.latencies += [d - s for s, d in zip(sent, done)]
        out.lags += closed_loop_lags(sent, done)

    def void_reason(self, lags) -> str | None:
        """Why a run whose generator ran ``lags`` late is void, or ``None``."""
        return None

    async def raw_response(self, client, inp: Inputs) -> bytes:
        """The response frame body of a repeat of the loop's first op."""
        _fields, body = await client.call_raw(self.message(inp, 0))
        return body

    # -- correctness -----------------------------------------------------
    def result_digest(self, result) -> str:
        return result.result_digest()

    def reference_checks(self, state: dict, inp: Inputs, out: Observed):
        """Compare sampled served results with in-process runs."""
        for i in inp.sample:
            if i in out.kept:
                out.checks.append((
                    direct_digest(inp.graphs[0], self.beta, inp.seeds[i]),
                    self.result_digest(out.kept[i]),
                ))


class ColdDecompose(Workload):
    name = "cold-decompose"
    why = (
        "grid:300x300 at beta 0.05, a fresh seed per request: the paper's "
        "Figure 1 setting (~150 BFS rounds); worker BFS and the result "
        "summary do the work, the cache never hits"
    )
    beta = 0.05
    ops_per_s = 20.0
    tail_cap = 75.0

    def inputs(self, seed: int, n_ops: int) -> Inputs:
        return self._build(["grid:300x300"], [0], self._rng(seed), n_ops)


class WarmUnderCold(Workload):
    name = "warm-under-cold"
    why = (
        "er:20000,0.0004 at beta 0.1, open loop: 100 hits/s over 40 cached "
        "seeds beside 9 fresh misses/s; latency is the hits', where O(m) "
        "work on the event loop shows"
    )
    loop = "open"
    beta = 0.1
    hit_rate = 100.0
    miss_rate = 9.0
    n_cached = 40
    #: every this-many-th hit is compared with the miss that filled it
    #: (coprime with ``n_cached``, so the checks cover every cached seed).
    hit_check_stride = 7
    #: a run whose generator ran later than this at its p99 is void.
    max_lag_s = 0.05
    tail_cap = 95.0

    def n_ops(self, seconds: float) -> int:
        return max(self.min_ops, round(seconds * self.miss_rate))

    def inputs(self, seed: int, n_ops: int) -> Inputs:
        rng = self._rng(seed)
        graph_seed = int(rng.integers(0, 2**30))
        return self._build(
            ["er:20000,0.0004"], [graph_seed], rng, n_ops, self.n_cached
        )

    async def setup(self, client, inp):
        state = await super().setup(client, inp)
        state["filled"] = await asyncio.gather(*(
            client.decompose(inp.digests[0], self.beta, seed=s)
            for s in inp.hit_seeds
        ))
        return state

    async def run(self, clients, state, inp, ops, out):
        """Two open-loop streams on one event loop, one connection each:
        the first carries the misses ``ops``, the second the hits.  The
        hits are the primary stream: the latency a user of warm results
        sees while cold requests run."""
        miss_client, hit_client = clients
        loop = asyncio.get_running_loop()
        digest = inp.digests[0]
        ops = list(ops)
        n_hits = round(len(ops) / self.miss_rate * self.hit_rate)
        out.attempted += len(ops) + n_hits
        start = loop.time() + 0.05

        async def stream(conn, rate, count, seed_of, keep):
            due, sent, done, tasks = [], [], [], []

            async def one(k):
                try:
                    result = await conn.decompose(
                        digest, self.beta, seed=seed_of(k)
                    )
                except (ReproError, asyncio.TimeoutError):
                    out.failed += 1
                    result = None
                done[k] = loop.time()
                if result is not None and keep(k):
                    out.kept[(rate, len(out.kept))] = (seed_of(k), result)

            for k in range(count):
                when = start + k / rate
                delay = when - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                due.append(when)
                sent.append(loop.time())
                done.append(None)
                tasks.append(loop.create_task(one(k)))
            await asyncio.gather(*tasks)
            return open_loop_samples(due, sent, done), max(done)

        (hits, hit_end), (misses, miss_end) = await asyncio.gather(
            stream(
                hit_client, self.hit_rate, n_hits,
                lambda k: inp.hit_seeds[k % self.n_cached],
                lambda k: k % self.hit_check_stride == 0,
            ),
            stream(
                miss_client, self.miss_rate, len(ops),
                lambda k: inp.seeds[ops[k]], lambda k: ops[k] in inp.sample,
            ),
        )
        out.latencies += hits[0]
        out.secondary += misses[0]
        out.lags += hits[1] + misses[1]
        out.wall_s += max(hit_end, miss_end) - start

    def void_reason(self, lags):
        lag = percentile(lags, 99.0)
        if lag > self.max_lag_s:
            return (
                f"the open-loop generator ran {lag * 1e3:.1f} ms late at "
                f"p99 (limit {self.max_lag_s * 1e3:.0f} ms)"
            )
        return None

    def reference_checks(self, state, inp, out):
        filled = dict(zip(inp.hit_seeds, state["filled"]))
        for (rate, _), (seed, result) in out.kept.items():
            if rate == self.hit_rate:
                want = self.result_digest(filled[seed])
            else:
                want = direct_digest(inp.graphs[0], self.beta, seed)
            out.checks.append((want, self.result_digest(result)))
        for seed in inp.hit_seeds[:2]:
            out.checks.append((
                direct_digest(inp.graphs[0], self.beta, seed),
                self.result_digest(filled[seed]),
            ))


class IngestThenDecompose(Workload):
    name = "ingest-then-decompose"
    why = (
        "8 distinct er:20000,0.0004 graphs as edge-list text: upload, one "
        "fresh-seed decompose, discard; parser, graph digest and pool "
        "registration do the work"
    )
    beta = 0.1
    ops_per_s = 4.0
    n_graphs = 8

    def inputs(self, seed: int, n_ops: int) -> Inputs:
        rng = self._rng(seed)
        graph_seeds = [int(s) for s in rng.integers(0, 2**30, self.n_graphs)]
        return self._build(
            ["er:20000,0.0004"] * self.n_graphs, graph_seeds, rng, n_ops
        )

    async def setup(self, client, inp):
        return {}

    def _digest(self, inp, i):
        return inp.digests[i % self.n_graphs]

    def message(self, inp, i):
        return {**super().message(inp, i), "digest": self._digest(inp, i)}

    async def fetch(self, client, inp, i):
        return await client.decompose(
            self._digest(inp, i), self.beta, seed=inp.seeds[i]
        )

    async def operation(self, client, inp, i, out):
        g = i % self.n_graphs
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        reply = await client.upload_text(inp.texts[g], "edges")
        out.upload_s += loop.time() - t0
        out.upload_bytes += len(inp.texts[g])
        out.checks.append((inp.digests[g], reply["digest"]))
        result = await self.fetch(client, inp, i)
        await client.discard(reply["digest"])
        return result

    async def raw_response(self, client, inp):
        await client.upload_text(inp.texts[0], "edges")
        body = await super().raw_response(client, inp)
        await client.discard(inp.digests[0])
        return body

    def reference_checks(self, state, inp, out):
        for i in inp.sample:
            if i in out.kept:
                out.checks.append((
                    direct_digest(
                        inp.graphs[i % self.n_graphs], self.beta, inp.seeds[i]
                    ),
                    self.result_digest(out.kept[i]),
                ))


class AppHierarchy(Workload):
    name = "app-hierarchy"
    why = (
        "grid:70x70 hierarchy op with default arguments, fresh seed per "
        "op: the only path through decompose_batch, induced_subgraph and "
        "embeddings (~0.7-1.4 s per op)"
    )
    ops_per_s = 2.5
    sampled = 2

    def inputs(self, seed: int, n_ops: int) -> Inputs:
        return self._build(["grid:70x70"], [0], self._rng(seed), n_ops)

    def message(self, inp, i):
        return {
            "op": "hierarchy", "digest": inp.digests[0],
            "seed": inp.seeds[i], "method": "auto", "beta_max": 0.9,
            "radius_constant": 1.0, "options": {},
        }

    async def fetch(self, client, inp, i):
        return await client.hierarchy(inp.digests[0], seed=inp.seeds[i])

    def result_digest(self, result) -> str:
        return labels_digest(result.labels)

    def reference_checks(self, state, inp, out):
        for i in inp.sample:
            if i in out.kept:
                local = hierarchical_decomposition(
                    inp.graphs[0], seed=inp.seeds[i]
                )
                out.checks.append((
                    labels_digest(local.labels),
                    self.result_digest(out.kept[i]),
                ))


WORKLOADS = {
    w.name: w
    for w in (ColdDecompose(), WarmUnderCold(), IngestThenDecompose(),
              AppHierarchy())
}
