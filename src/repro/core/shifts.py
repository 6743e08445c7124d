"""Exponential start-time shifts (steps 1–2 of Algorithm 1).

Each vertex draws ``δ_u ~ Exp(β)``; the BFS start time of ``u`` is
``start_u = δ_max − δ_u`` where ``δ_max = max_u δ_u``.  The vertex with the
largest shift starts at time 0; every other vertex starts later.  The
integer part of ``start_u`` schedules the waking round, the fractional part
is the tie-break key (Section 5).

:class:`ShiftAssignment` bundles the sampled values with everything derived
from them, so the BFS-based and exact implementations can consume *the same*
randomness — the precondition for the equivalence property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.rng.exponential import validate_beta
from repro.rng.seeding import SeedLike, make_generator

__all__ = [
    "ShiftAssignment",
    "sample_shifts",
    "sample_shifts_batch",
    "shifts_from_values",
]


@dataclass(frozen=True, eq=False)
class ShiftAssignment:
    """Shift values and their derived start-time decomposition.

    Attributes
    ----------
    beta:
        The decomposition parameter the shifts were drawn with.
    delta:
        ``δ_u`` per vertex.
    delta_max:
        ``max_u δ_u`` — the high-probability diameter certificate of
        Lemma 4.2 (no piece radius can exceed it).
    start_time:
        ``δ_max − δ_u ≥ 0`` per vertex.
    start_round:
        ``⌊start_time⌋`` — waking round per vertex.
    tie_key:
        Key used to compare equal integer rounds.  For fractional mode this
        is ``frac(start_time)``; for permutation mode (Section 5) it is
        ``rank(u)/n`` from a uniformly random permutation.
    mode:
        ``"fractional"``, ``"permutation"`` or ``"quantile"`` (see
        :func:`sample_shifts`).
    """

    beta: float
    delta: np.ndarray
    delta_max: float
    start_time: np.ndarray
    start_round: np.ndarray
    tie_key: np.ndarray
    mode: str

    @property
    def num_vertices(self) -> int:
        return int(self.delta.shape[0])

    def radius_certificate(self) -> float:
        """Upper bound on every piece's radius implied by these shifts.

        Any vertex ``v`` could claim itself at shifted distance ``−δ_v``, so
        its winning center satisfies ``dist(c, v) ≤ δ_c ≤ δ_max``
        (Theorem 1.2's proof).
        """
        return self.delta_max


def sample_shifts(
    num_vertices: int,
    beta: float,
    *,
    seed: SeedLike = None,
    mode: str = "fractional",
) -> ShiftAssignment:
    """Draw shifts for ``num_vertices`` vertices at parameter ``β``.

    Modes (the first is Algorithm 1 as stated; the others are the Section 5
    implementation variants):

    - ``"fractional"`` — i.i.d. ``Exp(β)`` shifts, fractional parts used as
      tie-breaks;
    - ``"permutation"`` — i.i.d. ``Exp(β)`` shifts, tie-breaks replaced by
      an independent uniformly random permutation;
    - ``"quantile"`` — §5's final suggestion: *"generate a random
      permutation of the vertices, and assign the shift values based on
      positions in the permutation."*  Vertex at permutation rank ``r``
      gets the deterministic exponential quantile
      ``F⁻¹((r + 1/2)/n) = −ln(1 − (r + 1/2)/n)/β`` — a stratified sample
      of ``Exp(β)`` needing only one permutation of randomness.  The paper
      conjectures the change "could be accounted for using a more intricate
      analysis, but might be more easily studied empirically"; benchmark
      ``ABL-quantile`` does exactly that.
    """
    beta = validate_beta(beta)
    if num_vertices <= 0:
        raise ParameterError("num_vertices must be positive")
    _check_mode(mode, ("fractional", "permutation", "quantile"))
    delta, perm = _draw(make_generator(seed), num_vertices, beta, mode)
    return _assemble(beta, delta, perm, mode)


def sample_shifts_batch(
    sizes: np.ndarray,
    seeds: list[int],
    beta: float,
    *,
    mode: str = "fractional",
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the shifts of many pieces at once, laid end to end.

    Piece ``i`` has ``sizes[i]`` vertices and integer seed ``seeds[i]``.
    Returns the concatenated ``(start_time, tie_key)``; piece ``i``'s
    slices equal ``sample_shifts(sizes[i], beta, seed=seeds[i],
    mode=mode)``'s bit for bit.  Only the random draws run per piece;
    ``δ_max``, start times and tie keys are derived in vectorised passes
    over all pieces.
    """
    beta = validate_beta(beta)
    _check_mode(mode, ("fractional", "permutation", "quantile"))
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        empty = np.zeros(0, dtype=np.float64)
        return empty, empty.copy()
    if sizes.min() <= 0:
        raise ParameterError("piece sizes must be positive")
    draws = [
        _draw(np.random.default_rng(seed), size, beta, mode)
        for size, seed in zip(sizes.tolist(), seeds, strict=True)
    ]
    delta = None if mode == "quantile" else np.concatenate(
        [d for d, _ in draws]
    )
    perm = None if mode == "fractional" else np.concatenate(
        [p for _, p in draws]
    )
    _, _, start_time, _, tie_key = _derive(beta, sizes, delta, perm, mode)
    return start_time, tie_key


def shifts_from_values(
    beta: float,
    delta: np.ndarray,
    *,
    mode: str = "fractional",
    seed: SeedLike = None,
) -> ShiftAssignment:
    """Build a :class:`ShiftAssignment` from externally supplied ``δ`` values.

    Used by tests (deterministic shift patterns) and by the ablation variants
    that substitute a different shift distribution into the same pipeline.
    """
    beta = validate_beta(beta, upper=np.inf)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 1 or delta.shape[0] == 0:
        raise ParameterError("delta must be a non-empty 1-D array")
    if delta.min() < 0:
        raise ParameterError("shift values must be non-negative")
    _check_mode(mode, ("fractional", "permutation"))
    perm = None
    if mode == "permutation":
        perm = make_generator(seed).permutation(delta.shape[0])
    return _assemble(beta, delta, perm, mode)


def _check_mode(mode: str, allowed: tuple[str, ...]) -> None:
    if mode not in allowed:
        raise ParameterError(
            f"mode must be {', '.join(map(repr, allowed[:-1]))} or "
            f"{allowed[-1]!r}, got {mode!r}"
        )


def _draw(
    rng: np.random.Generator, size: int, beta: float, mode: str
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One piece's random draws, in stream order: ``Exp(β)`` shifts
    (``fractional`` and ``permutation`` modes), then a permutation
    (``permutation`` and ``quantile`` modes).  The one per-piece recipe,
    shared by :func:`sample_shifts` and :func:`sample_shifts_batch`."""
    delta = None
    if mode != "quantile":
        delta = rng.exponential(scale=1.0 / beta, size=size)
    perm = None if mode == "fractional" else rng.permutation(size)
    return delta, perm


def _derive(
    beta: float,
    sizes: np.ndarray,
    delta: np.ndarray | None,
    perm: np.ndarray | None,
    mode: str,
):
    """Everything that follows from the draws of pieces laid end to end:
    ``(delta, delta_max per piece, start_time, start_round, tie_key)``.

    ``perm`` holds each piece's local permutation.  In quantile mode the
    vertex at rank ``r`` of its piece's permutation gets
    ``δ = −ln(1 − (r + 1/2)/n)/β``, and the shift ordering *is* the
    permutation, so fractional parts remain valid tie-break keys (distinct
    whenever the quantiles are).  In permutation mode the tie key is
    ``rank/n``.
    """
    starts = np.cumsum(sizes) - sizes
    piece_size = _per_vertex(sizes, sizes)
    if perm is not None:
        offset = _per_vertex(starts, sizes)
        ranks = np.empty(perm.shape[0], dtype=np.float64)
        ranks[perm + offset] = np.arange(perm.shape[0]) - offset
    if mode == "quantile":
        delta = -np.log1p(-(ranks + 0.5) / piece_size) / beta
    delta = np.ascontiguousarray(delta, dtype=np.float64)
    delta_max = np.maximum.reduceat(delta, starts)
    start_time = _per_vertex(delta_max, sizes) - delta
    start_round = np.floor(start_time).astype(np.int64)
    if mode == "permutation":
        tie_key = ranks / piece_size
    else:
        tie_key = start_time - start_round
    return delta, delta_max, start_time, start_round, tie_key


def _per_vertex(values: np.ndarray, sizes: np.ndarray):
    """Each piece's value repeated over its vertices; one piece's value
    stays a scalar, so the single-graph path allocates nothing extra."""
    if sizes.shape[0] == 1:
        return values[0]
    return np.repeat(values, sizes)


def _assemble(
    beta: float,
    delta: np.ndarray | None,
    perm: np.ndarray | None,
    mode: str,
) -> ShiftAssignment:
    """One piece's draws as a read-only :class:`ShiftAssignment`."""
    size = (perm if delta is None else delta).shape[0]
    delta, delta_max, start_time, start_round, tie_key = _derive(
        beta, np.asarray([size], dtype=np.int64), delta, perm, mode
    )
    for arr in (delta, start_time, start_round, tie_key):
        arr.setflags(write=False)
    return ShiftAssignment(
        beta=beta,
        delta=delta,
        delta_max=float(delta_max[0]),
        start_time=start_time,
        start_round=start_round,
        tie_key=tie_key,
        mode=mode,
    )
