"""Bend-power moments of chains, their closed forms, and invariance sweeps.

I_k sums the k-th powers of the chain bends; J_{k,m} additionally weights
each term by the m-th power of the circle center taken as a complex number.
For an n-chain the I_k with k <= n-1 and the J_{k,m} with 0 <= m <= k <= n-1
do not depend on the phase of the family, and the invariant J_{k,m} are real
in the canonical frame.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import mul, neg, sub

from .geometry import _Record, checked_radius
from .porism import MAX_MOMENT_ORDER, MAX_SWEEP_SAMPLES, TAU, Gauge, SteinerChain, _circle_coordinates
from .porism import chain_at_phase  # noqa: F401  (a binding bench/tracing.py wraps)


def require_finite(what: str, values: Sequence[complex], label: Callable[[int], str]) -> None:
    """Raise ValueError (CLI exit 2) naming label(i) of the first non-finite values[i]."""
    if not all(map(cmath.isfinite, values)):
        bad = next(i for i, v in enumerate(values) if not cmath.isfinite(v))
        raise ValueError(f"{what}: {label(bad)}")


def _powers(values: Sequence, top: int) -> list[list]:
    """[v^0, v^1, ..., v^top] elementwise, each power the previous one times v."""
    table = [[1.0] * len(values)]
    for _ in range(top):
        table.append(list(map(mul, table[-1], values)))
    return table


def _moments(
    bends: Sequence[float],
    centers: Sequence[complex],
    n: int,
    top: int,
    pairs: list[tuple[int, int]],
) -> tuple[list[list[float]], dict[tuple[int, int], list[complex]]]:
    """The moment kernel over a block of chains of n circles each, whose
    bends and centers are listed chain after chain: per chain, [I_0, ..., I_K]
    and {(k, m): J_{k,m}} for pairs, K being the largest of top and the k in
    pairs. Each result is a column with one entry per chain.

    The powers b^k and z^m are built once over the block by repeated
    multiplication. Each chain's sum adds its own n terms in circle order,
    so a chain gets the same bits alone as in any block. Every J_{k,0} is
    I_k itself, so the m = 0 column equals the bending moments bit for bit.
    """
    bpow = _powers(bends, max([top, *(k for k, _ in pairs)]))
    zpow = _powers(centers, max((m for _, m in pairs), default=0))

    def per_chain(terms: Iterable) -> list:
        return list(map(sum, zip(*[iter(terms)] * n)))

    bending = [per_chain(p) for p in bpow]
    cmap = {
        (k, m): per_chain(map(mul, zpow[m], bpow[k])) if m else list(map(complex, bending[k]))
        for k, m in pairs
    }
    return bending, cmap


def _chain_moments(
    chain: SteinerChain, top: int, pairs: list[tuple[int, int]]
) -> tuple[list[float], dict[tuple[int, int], complex]]:
    """The kernel on a block of one chain, for orders from 0 to MAX_MOMENT_ORDER."""
    bad = [o for pair in [(top,), *pairs] for o in pair if not 0 <= o <= MAX_MOMENT_ORDER]
    if bad:  # refused before any power table is built
        raise ValueError(f"moment orders must be from 0 to {MAX_MOMENT_ORDER}, got {bad[0]}")
    bends = chain.bends
    bending, cmap = _moments(bends, chain.centers, len(bends), top, pairs)
    return [col[0] for col in bending], {pair: col[0] for pair, col in cmap.items()}


def bending_moment(chain: SteinerChain, k: int) -> float:
    """Sum of k-th powers of the chain bends, for 0 <= k <= MAX_MOMENT_ORDER."""
    return _chain_moments(chain, k, [])[0][k]


def complex_moment(chain: SteinerChain, k: int, m: int) -> complex:
    """Sum of bend^k * center^m over the chain, centers as complex numbers,
    for orders from 0 to MAX_MOMENT_ORDER.

    The m = 0 column reproduces bending_moment exactly: both come from the
    same kernel.
    """
    return _chain_moments(chain, k, [(k, m)])[1][(k, m)]


class MomentSet(_Record):
    """All moments of one chain: the tuple bending of I_1..I_K and the dict
    complex_map from (k, m) to J_{k,m}, for 0 <= m <= k <= n-1."""

    _fields = __slots__ = ("n", "bending", "complex_map")


def invariant_pairs(n: int) -> list[tuple[int, int]]:
    """(k, m) index pairs whose complex moments are phase-invariant."""
    return [(k, m) for k in range(n) for m in range(k + 1)]


def moment_set(chain: SteinerChain, max_k: int | None = None) -> MomentSet:
    """I_1..I_max_k (max_k defaults to n, and must be from 1 to
    MAX_MOMENT_ORDER) and every invariant J_{k,m} of one chain."""
    n = chain.gauge.n
    top = n if max_k is None else max_k
    if top < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    bending, cmap = _chain_moments(chain, top, invariant_pairs(n))
    return MomentSet(n, tuple(bending[1 : top + 1]), cmap)


def closed_form_I(n: int, k: int, g: Gauge) -> float:
    """Printed closed forms of the invariant bending moments in R and r.

    Available for (n, k) in {(3,1), (3,2), (4,1), (4,2), (4,3)}.
    """
    R, r = g.R, g.r
    if (n, k) == (3, 1):
        return (R - r) / (2.0 * R * r)
    if (n, k) == (3, 2):
        return (R * R - 6.0 * R * r + r * r) / (8.0 * R * R * r * r)
    if (n, k) == (4, 1):
        return 2.0 * (R - r) / (R * r)
    if (n, k) == (4, 2):
        return (3.0 * R * R - 10.0 * R * r + 3.0 * r * r) / (2.0 * R * R * r * r)
    if (n, k) == (4, 3):
        return (5.0 * R**3 - 27.0 * R * R * r + 27.0 * R * r * r - 5.0 * r**3) / (
            4.0 * R**3 * r**3
        )
    raise ValueError(f"no closed form implemented for (n, k) = ({n}, {k})")


class GeneralMomentParams(_Record):
    """Scaled parent-bend symmetric functions: s = cot^2(pi/n) (A + a)/2 and
    p = cot^2(pi/n) A a, with a = 1/r, A = -1/R."""

    _fields = __slots__ = ("s", "p")


def first_two_moments_general(g: Gauge) -> tuple[float, float, GeneralMomentParams]:
    """I_1 = n s and I_2 = (n/2)(3 s^2 + p), valid for every n >= 3."""
    cot2 = 1.0 / g.q
    A, a = -1.0 / g.R, 1.0 / g.r
    s = cot2 * (A + a) / 2.0
    p = cot2 * A * a
    return g.n * s, (g.n / 2.0) * (3.0 * s * s + p), GeneralMomentParams(s, p)


def sweep_header(n: int) -> list[str]:
    cols = ["phase"] + [f"I{k}" for k in range(1, n + 1)]
    for k, m in invariant_pairs(n):
        cols.append(f"ReJ{k}_{m}")
        cols.append(f"ImJ{k}_{m}")
    return cols


SWEEP_BLOCK_CIRCLES = 256
"""A sweep computes its moments over blocks of about this many circles (at
least one chain each): the power tables of a block are what it holds in memory."""


def _sweep_blocks(g: Gauge, samples: int) -> Iterator[list[tuple[float, ...]]]:
    """The rows of the sweep over `samples` uniform phases of one period,
    with the columns of sweep_header, one block of phases at a time.

    Bends and centers come from the same closed form as chain_at_phase, and
    the kernel sums each chain alone, so each row has the bits of
    moment_set(chain_at_phase(g, theta)). The kernel runs column by column
    over the block, which is transposed into rows when it is done. Only one
    block is held at a time.
    """
    if not 2 <= samples <= MAX_SWEEP_SAMPLES:
        raise ValueError(f"a sweep takes from 2 to {MAX_SWEEP_SAMPLES} samples, got {samples}")
    n = g.n
    pairs = invariant_pairs(n)
    per_block = max(1, SWEEP_BLOCK_CIRCLES // n)
    for start in range(0, samples, per_block):
        block = [(TAU / n) * j / samples for j in range(start, min(start + per_block, samples))]
        radii: list[float] = []
        centers: list[complex] = []
        for coords in _circle_coordinates(g, block):
            xs, ys, rhos = zip(*coords)
            radii += rhos
            centers += map(complex, xs, ys)
        bends = [1.0 / checked_radius(rho) for rho in radii]
        bending, cmap = _moments(bends, centers, n, n, pairs)
        columns = [block, *bending[1 : n + 1]]
        for pair in pairs:
            values = cmap[pair]
            columns.append([v.real for v in values])
            columns.append([v.imag for v in values])
        yield list(zip(*columns))


def sweep_rows(g: Gauge, samples: int) -> list[list[float]]:
    """Per-phase moment table over `samples` uniform phases of one period,
    with the columns of sweep_header: the rows of every _sweep_blocks block."""
    rows: list[list[float]] = []
    for block in _sweep_blocks(g, samples):
        rows += map(list, block)
    return rows


def _refuse_overflow(n: int, rows: Sequence[Sequence[float]]) -> None:
    """ValueError naming the column of the first non-finite value, row by
    row, in sweep rows for n. One sum per row finds it, since any inf or NaN
    makes the sum non-finite; only then are the rows read value by value."""
    if not math.isfinite(sum(map(sum, rows))):
        label = sweep_header(n).__getitem__
        for row in rows:
            require_finite("moment overflows the float range", row, label)


class InvarianceReport(_Record):
    """Max-min deviations of all moments over a phase sweep.

    bending_deviation[k] covers I_k for k = 1..n; complex_deviation covers
    the invariant (k, m) pairs componentwise. max_imag is the largest |Im J|
    seen among invariant pairs. The deviation of I_n (not an invariant)
    doubles as the negative control.
    """

    _fields = __slots__ = (
        "n", "samples", "bending_deviation", "complex_deviation", "max_imag", "negative_control"
    )

    def invariants_ok(self, threshold: float) -> bool:
        real_ok = all(self.bending_deviation[k] <= threshold for k in range(1, self.n))
        cplx_ok = all(v <= threshold for v in self.complex_deviation.values())
        return real_ok and cplx_ok and self.max_imag <= threshold


def _fold_spans(n: int, blocks: Iterable[Sequence[Sequence[float]]]) -> InvarianceReport:
    """The report on a sweep given block by block, each block as its rows
    with the columns of sweep_header(n): the running max and min of every
    column, each one call over the old value and the block's rows.

    A moment that overflowed the float range raises ValueError (see
    _refuse_overflow).
    """
    highs: Sequence[float] = ()
    lows: Sequence[float] = ()
    samples = 0
    for rows in blocks:
        _refuse_overflow(n, rows)
        if not highs:
            highs = lows = rows[0]
        # max(old, *new) keeps the first of equal values, as one max() would
        highs = list(map(max, highs, *rows))
        lows = list(map(min, lows, *rows))
        samples += len(rows)
    spans = list(map(sub, highs, lows))
    bending_dev = dict(zip(range(1, n + 1), spans[1 : n + 1]))
    complex_dev = dict(zip(invariant_pairs(n), map(max, spans[n + 1 :: 2], spans[n + 2 :: 2])))
    max_imag = max([0.0, *highs[n + 2 :: 2], *map(neg, lows[n + 2 :: 2])])
    return InvarianceReport(n, samples, bending_dev, complex_dev, max_imag, bending_dev[n])


def invariance_sweep(g: Gauge, samples: int) -> InvarianceReport:
    """The report on sweep_rows(g, samples), folded block by block without
    holding the table."""
    return _fold_spans(g.n, _sweep_blocks(g, samples))
