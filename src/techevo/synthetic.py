"""Seeded synthetic technology trajectories.

Ground-truth generator for exercising every estimator: pick logistic
parameters, sample both curves on a uniform time grid, optionally multiply
by log-normal noise.  Identical specs produce bit-identical pairs on any
platform, because the random stream is pinned exactly:

RNG contract (language-independent)
-----------------------------------
* State: one 64-bit unsigned integer, initialized to the seed.
* next_u64 (SplitMix64)::

      state = (state + 0x9E3779B97F4A7C15) mod 2**64
      z = state
      z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
      z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
      return z ^ (z >> 31)

* uniform in (0, 1]: ``((next_u64() >> 11) + 1) * 2**-53``
* standard normal (Box-Muller, cosine branch only, two uniforms per
  deviate): ``sqrt(-2 ln u1) * cos(2 pi u2)``
* jump-ahead: draw i (counting from 1) of a generator in state s mixes
  only s + i * gamma (mod 2**64), gamma = 0x9E3779B97F4A7C15, so after
  d draws the state is ``(s + d * gamma) mod 2**64`` and a generator
  seeded there continues the stream.

``generate_pair`` draws the host's n deviates first, then the
subsystem's: the subsystem's generator is seeded with
``(seed + 2n * gamma) mod 2**64``, the state the host's 2n uniforms leave.
``generate_series`` makes each series from its own start, so the two can
be made in either order or at once; ``generate_pair`` is its two calls,
host first.  Deviates are clamped to [-5, 5] so generated values always
stay inside (0, k * exp(5 * noise_sigma)); a value that rounds out of the
finite positive floats there raises ``ValueError``.

Batch draws
-----------
``SplitMix64.normals`` computes the same stream many draws at a time, by
the counter property of the jump-ahead.  Up to ``_LANES`` draws are
packed into one Python int as 64-bit lanes that alternate with 64-bit
zero words.  The word above a lane takes the carry of the state addition
and the high half of each 64 x 64-bit product; the word below takes the
bits a right shift carries out of it.  Masking every lane back to 64 bits
after the addition, before and after each multiply and before the last
shift keeps the lanes independent, so one big-int add, shift, XOR,
multiply or mask advances every draw at once; the uniforms'
``(x >> 11) + 1`` is taken in the lanes too.  Pack and unpack go
through ``array("Q")`` in the host's native byte order (``sys.byteorder``),
with lane j at array index 2j and a zero word at 2j + 1.  On a big-endian
host array index 0 lands at the most significant end instead of the
least, but lanes and zero words still alternate, and unpacking in the same
order returns the lanes in draw order.  The contract above is unchanged:
``normals(n)`` returns exactly what n calls of ``normal`` return.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from ._record import Record
from .errors import InputError
from .logistic import LogisticParams, logistic_value
from .series import MIN_POINTS, AlignedPair, FmtSeries

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Draws ``SplitMix64.normals`` packs into one big int; even, so that every
#: batch holds whole (u1, u2) pairs.
_LANES = 4096
#: Largest series ``generate_pair`` builds; far past any real measure history.
_MAX_POINTS = 1_000_000


class SplitMix64:
    """Counter-based 64-bit generator with Box-Muller normals."""

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed {seed!r} outside [0, 2**64)")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform deviate in (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal deviate; consumes exactly two uniforms."""
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, count: int) -> list[float]:
        """``count`` standard normal deviates: bit for bit the values of
        ``count`` calls of ``normal``, leaving the state where those calls
        leave it.  The draws are mixed ``_LANES`` at a time in packed lanes
        (see the module docstring), and each batch becomes normals before
        the next is drawn.
        """
        if count <= 0:
            return []
        from array import array  # imported here to keep CLI start-up lean

        sqrt, log, cos = math.sqrt, math.log, math.cos
        two_pi = 2.0 * math.pi
        ulp = 2.0 ** -53
        draws = 2 * count
        size = min(draws, _LANES)
        ones = _pack([1] * size)
        mask = ones * _MASK64
        steps = _pack(range(1, size + 1)) * _GAMMA
        out: list[float] = []
        for start in range(0, draws, size):
            z = (ones * ((self._state + start * _GAMMA) & _MASK64) + steps) & mask
            z = (((z ^ (z >> 30)) & mask) * _MIX1) & mask
            z = (((z ^ (z >> 27)) & mask) * _MIX2) & mask
            # The uniforms' (x >> 11) + 1, still in every lane at once.
            z = (((z ^ (z >> 31)) & mask) >> 11) + ones
            words = array("Q")
            words.frombytes(z.to_bytes(16 * size, sys.byteorder))
            # The last batch may fill fewer lanes than it mixed.
            end = 2 * min(size, draws - start)
            out += [
                sqrt(-2.0 * log(a * ulp)) * cos(two_pi * (b * ulp))
                for a, b in zip(words[0:end:4], words[2:end:4])
            ]
        self._state = (self._state + draws * _GAMMA) & _MASK64
        return out


def _pack(lanes: Sequence[int]) -> int:
    """One big int holding each value as a lane, in ``normals``' layout."""
    from array import array

    words = array("Q", bytes(16 * len(lanes)))
    words[0::2] = array("Q", lanes)
    return int.from_bytes(words, sys.byteorder)


class SyntheticSpec(Record):
    """Everything needed to reproduce one synthetic pair exactly."""

    __slots__ = (
        "host_params", "sub_params", "t_start", "t_end", "n_points", "noise_sigma", "seed",
    )
    _defaults = {"noise_sigma": 0.0, "seed": 0}

    def _check(self) -> None:
        t_start, t_end = self.t_start, self.t_end
        n_points, noise_sigma, seed = self.n_points, self.noise_sigma, self.seed
        # Non-finite if either end is, or if the span overflows.
        if not math.isfinite(t_end - t_start):
            raise ValueError(
                f"t_start {t_start!r}, t_end {t_end!r} and the span between them "
                "must be finite"
            )
        if not t_start < t_end:
            raise ValueError(f"t_start {t_start!r} must precede t_end {t_end!r}")
        if not MIN_POINTS <= n_points <= _MAX_POINTS:
            raise ValueError(
                f"n_points must lie in [{MIN_POINTS}, {_MAX_POINTS}], got {n_points!r}"
            )
        if not 0.0 <= noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be finite and >= 0, got {noise_sigma!r}"
            )
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed {seed!r} outside [0, 2**64)")


def _noisy_values(
    params: LogisticParams, ts: list[float], sigma: float, rng: SplitMix64
) -> list[float]:
    values = [logistic_value(params, t) for t in ts]
    if sigma == 0.0:
        return values
    exp = math.exp
    try:
        return [
            v * exp(sigma * (-5.0 if z < -5.0 else 5.0 if z > 5.0 else z))
            for v, z in zip(values, rng.normals(len(ts)))
        ]
    except OverflowError:
        raise ValueError(f"noise_sigma {sigma!r} overflows a noise factor") from None


def generate_series(spec: SyntheticSpec, label: str) -> FmtSeries:
    """The "host" or the "sub" series of ``generate_pair(spec)``, made
    alone: the sub's generator starts where the host's n normals leave
    the stream.  A time or value that ``FmtSeries`` refuses raises
    ``ValueError``."""
    n = spec.n_points
    dt = (spec.t_end - spec.t_start) / (n - 1)
    ts = [spec.t_start + i * dt for i in range(n)]
    if label == "host":
        params, state = spec.host_params, spec.seed
    else:  # the state the host's 2n draws leave
        params, state = spec.sub_params, (spec.seed + 2 * n * _GAMMA) & _MASK64
    values = _noisy_values(params, ts, spec.noise_sigma, SplitMix64(state))
    try:
        return FmtSeries(f"synthetic-{label}", ts, values)
    except InputError as exc:
        raise ValueError(f"generated {exc}") from exc


def generate_pair(spec: SyntheticSpec) -> AlignedPair:
    """Sample both curves on a uniform grid with optional log-normal noise;
    a time or value that ``FmtSeries`` refuses raises ``ValueError``, the
    host's before any of the sub's."""
    return AlignedPair(generate_series(spec, "host"), generate_series(spec, "sub"))
