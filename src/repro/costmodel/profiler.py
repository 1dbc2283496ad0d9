"""Offline reuse-distance profiles per (backend, block shape, radius).

Following the PPT/Simian approach, a kernel's memory behaviour is
summarized *offline* — analytically, from the backend's access pattern,
not by tracing the simulated run — as a small **reuse-distance
profile**: how many memory accesses one DP update issues, and at what
stack distances (bytes of unique data touched between successive uses)
those accesses hit.  The hierarchy cost model evaluates a profile
against a :class:`repro.costmodel.hierarchy.MemoryHierarchy` to price
each access at the first cache level large enough to still hold the
reuse window, falling through to DRAM.

Profiles are memoized with ``functools.lru_cache`` keyed on the fully
resolved ``(backend, rows, cols, radius)`` — the same idiom as the
experiment runner's operator cache — so a sweep revisiting one block
shape derives its slowdown once.  All arithmetic is pure, deterministic
float math: profiles (and hence schedules) are bit-reproducible.

Derivations (one multiply-add per touched value, 8-byte float64):

``direct``
    Dense convolution over the ``(2R+1)^2`` stencil window.  Of the
    ``J = (2R+1)^2`` reads per DP, the ``2R+1`` same-row neighbours
    reuse a just-touched contiguous segment (distance ``(2R+1) * 8``
    bytes); the other rows reuse the sliding row window of the padded
    block (distance ``(2R+1) * (cols + 2R) * 8`` bytes).
``fft``
    ``ceil(log2(n))`` butterfly passes over the ``n``-point padded
    block, each touching every point ~5 times (two reads, two writes,
    a twiddle).  Small-stride passes reuse a row-sized working set;
    large-stride passes stride the whole padded array, so half the
    accesses sit at full-block distance.
``sparse``
    Streaming CSR apply: matrix values and column indices are read once
    per nonzero (no reuse — infinite distance, always DRAM), while the
    gathered vector entries enjoy the same sliding-window reuse as the
    direct kernel.  Unregistered backend names get this profile too —
    the conservative no-reuse assumption for a kernel nobody measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

__all__ = ["ReuseProfile", "reuse_profile"]


@dataclass(frozen=True)
class ReuseProfile:
    """Memory-access summary of one kernel on one block shape.

    ``distances`` is a distribution: ``(stack_distance_bytes,
    probability)`` pairs with probabilities summing to 1; an infinite
    distance models streaming (never-reused) data.
    """

    backend: str
    rows: int
    cols: int
    radius: int
    #: memory accesses one DP update issues
    accesses_per_dp: float
    #: ``(stack_distance_bytes, probability)`` pairs, probs sum to 1
    distances: Tuple[Tuple[float, float], ...]

    def mem_time_per_dp(self, hierarchy) -> float:
        """Expected memory seconds per DP update against ``hierarchy``."""
        return self.accesses_per_dp * sum(
            p * hierarchy.access_time(d) for d, p in self.distances)


def _direct_profile(rows: int, cols: int, radius: int):
    R = radius
    span = 2 * R + 1
    J = float(span * span)
    near = span * 8.0                       # same-row stencil segment
    window = span * (cols + 2 * R) * 8.0    # sliding row window
    p_near = span / J
    return J, ((near, p_near), (window, 1.0 - p_near))


def _fft_profile(rows: int, cols: int, radius: int):
    R = radius
    padded_rows, padded_cols = rows + 2 * R, cols + 2 * R
    n = padded_rows * padded_cols
    passes = max(1.0, math.ceil(math.log2(n)))
    # per *padded* point, 5 touches per butterfly pass; per DP update
    # the whole padded block is transformed for rows*cols outputs
    accesses = 5.0 * passes * n / float(rows * cols)
    row_set = padded_cols * 8.0             # small-stride working set
    full = n * 8.0                          # large-stride passes
    return accesses, ((row_set, 0.5), (full, 0.5))


def _sparse_profile(rows: int, cols: int, radius: int):
    R = radius
    span = 2 * R + 1
    J = float(span * span)
    window = span * (cols + 2 * R) * 8.0    # gathered-vector reuse
    # per nonzero: streamed value + column index, one vector gather
    return 3.0 * J, ((window, 1.0 / 3.0), (math.inf, 2.0 / 3.0))


_PROFILES = {"direct": _direct_profile, "fft": _fft_profile,
             "sparse": _sparse_profile}


@lru_cache(maxsize=256)
def reuse_profile(backend: str, rows: int, cols: int,
                  radius: int) -> ReuseProfile:
    """The (memoized) offline profile of ``backend`` on this shape."""
    if rows <= 0 or cols <= 0 or radius < 0:
        raise ValueError(f"bad block shape {rows}x{cols}, radius {radius}")
    builder = _PROFILES.get(backend, _sparse_profile)
    accesses, distances = builder(rows, cols, radius)
    return ReuseProfile(backend=backend, rows=int(rows), cols=int(cols),
                        radius=int(radius), accesses_per_dp=float(accesses),
                        distances=distances)
