"""Kernel selection and the compiled-extension contract.

Covers the dispatch layer (:mod:`repro.bfs.kernels`) in both worlds — the
extension built (most CI jobs) and absent (simulated by monkeypatching) —
plus the native kernel's input validation and the scratch pristine
invariant that makes per-round buffer reuse sound.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.bfs.kernels as kernels
from repro.bfs.delayed import delayed_multisource_bfs, resolve_claims
from repro.bfs.dijkstra import shifted_integer_dijkstra
from repro.bfs.kernels import (
    KERNEL_CHOICES,
    KernelScratch,
    native_available,
    resolve_kernel,
    use_kernel,
)
from repro.errors import ParameterError
from repro.graphs.generators import erdos_renyi, grid_2d

needs_native = pytest.mark.skipif(
    not native_available(), reason="compiled kernel repro.bfs._kernel not built"
)


class TestResolveKernel:
    def test_choices_cover_the_contract(self):
        assert KERNEL_CHOICES == ("auto", "python", "native")

    def test_python_always_resolves(self):
        assert resolve_kernel("python") == "python"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ParameterError, match="unknown kernel"):
            resolve_kernel("fortran")

    def test_auto_matches_availability(self):
        expected = "native" if native_available() else "python"
        assert resolve_kernel("auto") == expected

    @needs_native
    def test_native_resolves_when_built(self):
        assert resolve_kernel("native") == "native"

    def test_native_without_extension_raises_clearly(self, monkeypatch):
        monkeypatch.setattr(kernels, "_native", None)
        assert not native_available()
        assert resolve_kernel("auto") == "python"
        with pytest.raises(ParameterError, match="build_ext"):
            resolve_kernel("native")
        # The BFS front door surfaces the same error.
        with pytest.raises(ParameterError, match="native"):
            delayed_multisource_bfs(
                grid_2d(3, 3), np.zeros(9), kernel="native"
            )

    def test_auto_without_extension_runs_python(self, monkeypatch):
        monkeypatch.setattr(kernels, "_native", None)
        res = delayed_multisource_bfs(grid_2d(3, 3), np.zeros(9), kernel="auto")
        np.testing.assert_array_equal(res.center, np.arange(9))


class TestUseKernel:
    def test_context_sets_and_restores(self):
        before = resolve_kernel(None)
        with use_kernel("python") as resolved:
            assert resolved == "python"
            assert resolve_kernel(None) == "python"
        assert resolve_kernel(None) == before

    def test_none_leaves_context_untouched(self):
        with use_kernel("python"):
            with use_kernel(None) as resolved:
                assert resolved == "python"

    def test_contexts_nest(self):
        with use_kernel("python"):
            with use_kernel("auto"):
                expected = "native" if native_available() else "python"
                assert resolve_kernel(None) == expected
            assert resolve_kernel(None) == "python"

    def test_bad_kernel_rejected_on_entry(self):
        with pytest.raises(ParameterError, match="unknown kernel"):
            with use_kernel("gpu"):
                pass  # pragma: no cover


class TestKernelScratch:
    def test_starts_pristine(self):
        assert KernelScratch(16).pristine()

    @needs_native
    def test_native_resolve_restores_pristine(self):
        n = 32
        scratch = KernelScratch(n)
        rng = np.random.default_rng(1)
        cand_v = rng.integers(0, n, 200)
        cand_c = rng.integers(0, n, 200)
        tie_key = rng.random(n)
        native = resolve_claims(
            cand_v, cand_c, tie_key,
            num_vertices=n, kernel="native", scratch=scratch,
        )
        assert scratch.pristine()
        python = resolve_claims(
            cand_v, cand_c, tie_key, num_vertices=n, kernel="python"
        )
        np.testing.assert_array_equal(native[0], python[0])
        np.testing.assert_array_equal(native[1], python[1])

    @needs_native
    def test_results_detached_from_scratch(self):
        """Returned winners must not alias the reusable buffers: a later
        round would silently rewrite an earlier round's result."""
        n = 8
        scratch = KernelScratch(n)
        tie_key = np.linspace(0, 1, n)
        first = resolve_claims(
            np.array([1, 2]), np.array([1, 2]), tie_key,
            num_vertices=n, kernel="native", scratch=scratch,
        )
        snapshot = first[0].copy()
        resolve_claims(
            np.array([5, 6]), np.array([5, 6]), tie_key,
            num_vertices=n, kernel="native", scratch=scratch,
        )
        np.testing.assert_array_equal(first[0], snapshot)


@needs_native
class TestNativeValidation:
    def test_wrong_dtype_rejected(self):
        scratch = KernelScratch(4)
        with pytest.raises(TypeError, match="int64"):
            kernels.native_module().resolve_claims(
                np.zeros(2, dtype=np.int32),  # not int64
                np.zeros(2, dtype=np.int64),
                np.zeros(4),
                scratch.best_key,
                scratch.best_center,
                scratch.touched,
                scratch.winners,
                scratch.owners,
            )

    def test_out_of_range_vertex_rejected_and_scratch_reset(self):
        scratch = KernelScratch(4)
        with pytest.raises(ValueError, match="out of range"):
            kernels.native_module().resolve_claims(
                np.array([0, 99], dtype=np.int64),
                np.array([0, 0], dtype=np.int64),
                np.zeros(4),
                scratch.best_key,
                scratch.best_center,
                scratch.touched,
                scratch.winners,
                scratch.owners,
            )
        # The error path must not leave stale bids behind.
        assert scratch.pristine()

    def test_inconsistent_lengths_rejected(self):
        scratch = KernelScratch(4)
        with pytest.raises(ValueError, match="inconsistent"):
            kernels.native_module().resolve_claims(
                np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.int64),  # length mismatch
                np.zeros(4),
                scratch.best_key,
                scratch.best_center,
                scratch.touched,
                scratch.winners,
                scratch.owners,
            )


@needs_native
class TestNativeBFSParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_native_equals_exact_dijkstra(self, seed):
        """The native kernel satisfies the same ground-truth equivalence the
        python path is pinned to (Section 5)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 50))
        g = erdos_renyi(n, 0.12, seed=seed + 7)
        start = rng.random(n) * rng.integers(1, 10)
        floor = np.floor(start).astype(np.int64)
        res = delayed_multisource_bfs(g, start, kernel="native")
        ref = shifted_integer_dijkstra(g, floor, start - floor)
        np.testing.assert_array_equal(res.center, ref.center)
        np.testing.assert_array_equal(res.hops, ref.hops)
        np.testing.assert_array_equal(res.round_claimed, ref.round_claimed)
