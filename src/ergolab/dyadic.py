"""Dyadic decomposition machinery and the variance-bound framework.

``L_{s,r}`` is the class of blocks ``{m : i 2^r < m <= (i+1) 2^r}`` for
``0 <= i < 2^{s-r}``, and ``L_s`` their union over levels ``0 <= r < s``.
Every ``{1..n}`` with ``n < 2^s`` splits into at most ``s`` disjoint
blocks of ``L_s``, which chains a maximal partial sum to per-block
variances by Cauchy-Schwarz.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .correlations import POLYNOMIAL_MODEL, RateFit, _pairwise_moments, fit_model
from .errors import DomainError, InsufficientData, ShapeMismatch
from .systems import SLAB_ITEMS


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Block {m : index 2^level < m <= (index + 1) 2^level}."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0 or self.index < 0:
            raise DomainError("level and index must be nonnegative")

    @property
    def lo(self) -> int:
        """Smallest member."""
        return self.index * (1 << self.level) + 1

    @property
    def hi(self) -> int:
        """Largest member."""
        return (self.index + 1) * (1 << self.level)

    def __len__(self) -> int:
        return 1 << self.level

    def __contains__(self, m: int) -> bool:
        return self.lo <= m <= self.hi


def s_of(n: int) -> int:
    """Smallest s with n < 2^s."""
    if n < 1:
        raise DomainError("need n >= 1")
    return int(n).bit_length()


def dyadic_classes(s: int) -> list[DyadicInterval]:
    """All blocks of L_s: levels 0 <= r < s, indices 0 <= i < 2^(s-r)."""
    if s < 1:
        raise DomainError("need s >= 1")
    return [
        DyadicInterval(r, i)
        for r in range(s)
        for i in range(1 << (s - r))
    ]


def decompose(n: int, s: int) -> list[DyadicInterval]:
    """Disjoint blocks of L_s covering {1..n}, largest first, at most s of them.

    Greedy on the binary expansion of n: the leading block has length the
    highest power of two in n, and so on down.  Only the bits of n are
    visited, so the cost is O(log n) whatever s.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    bits = int(n).bit_length()
    if bits > s:  # n >= 2^s, without building 2^s
        raise DomainError(f"need n < 2^s, got n={n}, s={s}")
    blocks = []
    start = 0  # blocks cover (start, start + 2^r]
    for r in range(bits - 1, -1, -1):
        if n >> r & 1:
            blocks.append(DyadicInterval(r, start >> r))
            start += 1 << r
    return blocks


# ---------------------------------------------------------------------------
# One-pass reduction of term blocks
# ---------------------------------------------------------------------------
#
# Every dyadic N is a prefix of the largest one and every block of L_s lies
# in {1..2^s}, so the rows of one (points, W) term block with W = max(max N,
# 2^max s) feed every E(0, N) and every L_s profile.  Given the terms, no
# statistic depends on W or on how the rows are cut into slabs: each row
# prefix and each block is summed on its own, batch moments are merged
# pairwise in point order and level means are taken over all points at
# once, so the results are the same floats as a separate pass per N or per
# s over the whole block.

# Term generators are vectorized callbacks (point_indices, ks) -> the term
# rows of those points over those ks: a 2-D array, or an iterable of 2-D
# row slabs in point order, which ``block_moments`` reduces as they come.
TermGenerator = Callable[[np.ndarray, np.ndarray], Iterable[np.ndarray]]

# Bytes the points of one batch may hold, measured by an upper bound per
# point: its W float64 terms and a uniform and a symbol at each position
# it reads (``averages.term_bytes``).  A streamed batch holds much less:
# on an i.i.d. chain one row slab of symbols, terms and scratch; on any
# other chain a uniform and a symbol per point and position as well.  The
# bound still sizes the partition, which decides the pairwise merge.  A
# batch holds at most 512
# points, and at least one whatever the row bytes.  48 MiB keeps 512 points
# up to W = 2048 with a radius-1 and a radius-0 factor on two letters
# (44 MiB), so those runs merge as they did before batches were sized by
# bytes.  Batches depend on n_points and the row bytes alone, so the merge
# sees the same partial sums in the same order for any worker count.
BATCH_BYTES = 48 << 20


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    """Per-level and total block-variance sums over an ensemble.

    level_means[r] is the ensemble mean of the squared block sums at level
    r; per_point_totals holds the full L_s sum for each ensemble point.
    """

    s: int
    level_means: np.ndarray
    total_mean: float
    per_point_totals: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockMoments:
    """Reduction of one (points, columns) term block.

    prefix_moments[j] holds (count, mean, sum of squared deviations) of S^2
    over the block's points, S being a point's sum of its first ns[j]
    terms; level_totals[i] is the (s, points) array of per-point sums of
    squared L_s block sums at each level r, for s = s_values[i].
    """

    points: int
    columns: int
    prefix_moments: tuple[tuple[int, float, float], ...]
    level_totals: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class DyadicMoments:
    """Ensemble statistics merged from blocks in point order: e_values[j]
    is (E, standard error) of the squared ns[j]-term sum, profiles[i] the
    VarianceProfile at s_values[i]."""

    e_values: tuple[tuple[float, float], ...]
    profiles: tuple[VarianceProfile, ...]


def term_columns(ns: Sequence[int], s_values: Sequence[int] = ()) -> int:
    """Columns W of a term block that serves every N in ns and every L_s."""
    if any(s < 1 for s in s_values):
        raise DomainError("need s >= 1")
    if not ns and not s_values:
        raise DomainError("need at least one N or s")
    return max([int(n) for n in ns] + [1 << int(s) for s in s_values])


def batch_points(row_bytes: int) -> int:
    """Points per batch: min(512, max(1, BATCH_BYTES // row_bytes))."""
    return min(512, max(1, BATCH_BYTES // row_bytes))


def point_batches(n_points: int, row_bytes: int) -> list[tuple[int, int]]:
    """Fixed [lo, hi) point ranges of ``batch_points(row_bytes)`` points."""
    size = batch_points(row_bytes)
    return [(lo, min(lo + size, n_points)) for lo in range(0, n_points, size)]


def _squared_levels(head: np.ndarray, scratch: np.ndarray):
    """For r = 0, 1, ..., top - 1, the squares of the level-r block sums of
    the rows of ``head``, a (rows, 2^top) array: a (rows, 2^(top - r)) view
    of ``scratch``, which holds rows 2^top floats, valid until the next
    level is asked for.

    Each block sum is the float ``head.reshape(rows, -1, 2^r).sum(axis=2)``
    gives, built in numpy's own pairwise order: numpy sums fewer than 8
    terms left to right, 8 to 128 terms in 8 interleaved running sums
    combined pairwise, and more as the sum of their two halves.  So blocks
    of 2, 4 and 8 are strided adds, blocks of 16 to 128 are that sum, and
    blocks of 256 or more add two blocks of the level below.  With N
    entries of scratch, level r's sums take entries N - 2 N_r to N - N_r
    and their squares the last N_r, N_r = N / 2^r, so levels 1 and r - 1
    are intact while level r is built.
    """
    rows, width = head.shape
    # ``head`` is often a prefix of wider rows, and numpy allocates buffers
    # for a ufunc over such a view (64 KiB an operand); a copy takes none.
    squares = scratch.reshape(rows, width)
    squares[...] = head
    yield np.square(squares, out=squares)
    pairs = sums = None
    for r in range(1, width.bit_length() - 1):
        n = scratch.size >> r
        below, sums = sums, scratch[-2 * n:-n].reshape(rows, width >> r)
        squares = scratch[-n:].reshape(rows, width >> r)
        if r == 1:
            sums[...] = head[:, 0::2]
            sums += head[:, 1::2]
            pairs = sums
        elif r == 2:  # ((x0 + x1) + x2) + x3
            np.add(pairs[:, 0::2], head[:, 2::4], out=sums)
            sums += head[:, 3::4]
        elif r == 3:  # ((x0 + x1) + (x2 + x3)) + ((x4 + x5) + (x6 + x7))
            np.add(pairs[:, 0::4], pairs[:, 1::4], out=sums)
            np.add(pairs[:, 2::4], pairs[:, 3::4], out=squares)
            sums += squares
        elif r < 8:
            head.reshape(rows, width >> r, 1 << r).sum(axis=2, out=sums)
        else:
            np.add(below[:, 0::2], below[:, 1::2], out=sums)
        np.square(sums, out=squares)
        yield squares


def block_moments(terms, ns: Sequence[int], s_values: Sequence[int] = ()) -> BlockMoments:
    """Prefix moments for each N in ns and L_s level totals for each s.

    ``terms`` is the block's rows in point order, as an iterable of 2-D row
    slabs of equal width; a 2-D array is one slab.  Each slab is reduced
    when it comes and only each row's prefix sums and level totals are
    kept, so the block is never held whole.  Every prefix and every level
    block is summed in the order numpy's ``sum`` over it would use
    (``_squared_levels``), so the totals are its floats.
    """
    width = term_columns(ns, s_values)
    top = max(s_values, default=0)
    # The level-r block sums of any s are the first 2^(s-r) of those of the
    # largest s: the same elements summed the same way.  So each level is
    # summed and squared once, and each s totals a prefix of it.  Rows go
    # in slabs of about SLAB_ITEMS terms, and the level block sums of each
    # go into one scratch array, made for the first slab and made again
    # only for a larger one.
    step = max(1, SLAB_ITEMS >> top)
    columns = None
    scratch = np.empty(0, dtype=np.float64)
    sums, levels = [], []
    for slab in (terms,) if isinstance(terms, np.ndarray) else terms:
        arr = np.atleast_2d(np.asarray(slab, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[1] < width or columns not in (None, arr.shape[1]):
            raise ShapeMismatch(
                f"term slabs need one width of at least {width} columns, got shape {arr.shape}"
            )
        columns = arr.shape[1]
        for lo in range(0, arr.shape[0], step):
            head = arr[lo:lo + step]
            rows = head.shape[0]
            part = np.empty((len(ns), rows), dtype=np.float64)
            for j, n in enumerate(ns):
                # Each row of the strided prefix view is summed like a contiguous row.
                head[:, :n].sum(axis=1, out=part[j])
            sums.append(part)
            totals = tuple(np.empty((s, rows), dtype=np.float64) for s in s_values)
            if scratch.size < rows << top:
                scratch = np.empty(rows << top, dtype=np.float64)
            squared = _squared_levels(head[:, : 1 << top], scratch[: rows << top])
            for r, squares in zip(range(top), squared):
                for s, level in zip(s_values, totals):
                    if r < s:
                        squares[:, : 1 << (s - r)].sum(axis=1, out=level[r])
            levels.append(totals)
    if columns is None:
        raise ShapeMismatch("term block has no rows")
    sums = np.concatenate(sums, axis=1)
    prefix = []
    for row in sums:
        sums_sq = row ** 2
        mean = float(sums_sq.mean())
        prefix.append((sums.shape[1], mean, float(((sums_sq - mean) ** 2).sum())))
    level_totals = tuple(np.concatenate(parts, axis=1) for parts in zip(*levels))
    return BlockMoments(sums.shape[1], columns, tuple(prefix), level_totals)


def merge_moments(blocks: Sequence[BlockMoments]) -> DyadicMoments:
    """E(0, N) with standard errors and the L_s profiles, from blocks in
    order; block variances are merged pairwise, with no sum of squares."""
    n_points = sum(b.points for b in blocks)
    e_values = []
    for j in range(len(blocks[0].prefix_moments)):
        _, mean, m2 = _pairwise_moments([b.prefix_moments[j] for b in blocks])
        e_values.append((mean, (m2 / n_points / n_points) ** 0.5))
    profiles = []
    for i in range(len(blocks[0].level_totals)):
        levels = np.concatenate([b.level_totals[i] for b in blocks], axis=1)
        totals = np.zeros(n_points, dtype=np.float64)
        for row in levels:
            totals += row
        profiles.append(
            VarianceProfile(
                s=levels.shape[0],
                level_means=np.array([row.mean() for row in levels], dtype=np.float64),
                total_mean=float(totals.mean()),
                per_point_totals=totals,
            )
        )
    return DyadicMoments(tuple(e_values), tuple(profiles))


def batch_moments(
    generator: TermGenerator,
    lo: int,
    hi: int,
    ns: Sequence[int],
    s_values: Sequence[int] = (),
    m: int = 0,
) -> BlockMoments:
    """Block moments of points lo..hi-1 from one generator call over
    ks = m+1..m+W, so ns count terms after m; the call's row slabs are
    reduced as the generator makes them."""
    idx = np.arange(lo, hi, dtype=np.int64)
    ks = np.arange(m + 1, m + term_columns(ns, s_values) + 1, dtype=np.int64)
    moments = block_moments(generator(idx, ks), ns, s_values)
    if (moments.points, moments.columns) != (idx.size, ks.size):
        raise ShapeMismatch(
            f"generator returned {moments.points} rows of {moments.columns} terms, "
            f"expected {(idx.size, ks.size)}"
        )
    return moments


def ensemble_moments(
    generator: TermGenerator,
    n_points: int,
    ns: Sequence[int],
    s_values: Sequence[int] = (),
    m: int = 0,
) -> DyadicMoments:
    """E(m, m+N) for each N in ns and the L_s profiles of the terms after
    m, one generator call per point batch; batches count a row as its W
    float64 terms."""
    if n_points < 2:
        raise DomainError("need at least 2 ensemble points")
    if m < 0 or any(n < 1 for n in ns):
        raise DomainError("need m >= 0 and every N >= 1")
    batches = point_batches(n_points, 8 * term_columns(ns, s_values))
    return merge_moments([batch_moments(generator, lo, hi, ns, s_values, m) for lo, hi in batches])


def variance_profile(terms, s: int) -> VarianceProfile:
    """Sum of squared block sums over L_s, per point and per level."""
    if s < 1:
        raise DomainError("need s >= 1")
    arr = np.atleast_2d(np.asarray(terms, dtype=np.float64))
    if arr.ndim != 2 or arr.shape[1] != (1 << s):
        raise ShapeMismatch(
            f"term matrix must have 2^s = {1 << s} columns, got shape {arr.shape}"
        )
    return merge_moments([block_moments(arr, (), (s,))]).profiles[0]


def exceptional_fraction(
    profile: VarianceProfile, epsilon: float, sigma: float
) -> tuple[float, float]:
    """Fraction of points whose L_s total exceeds s^(2+eps) 2^(sigma s),
    and its Chebyshev bound C s^-(1+eps) with C = mean total / (s 2^(sigma s)).

    The bound holds for the empirical ensemble by Markov's inequality, so
    fraction <= bound up to floating error by construction.
    """
    if epsilon <= 0 or sigma <= 0:
        raise DomainError("epsilon and sigma must be positive")
    s = profile.s
    threshold = s ** (2.0 + epsilon) * 2.0 ** (sigma * s)
    fraction = float(np.mean(profile.per_point_totals > threshold))
    constant = profile.total_mean / (s * 2.0 ** (sigma * s))
    bound = constant * s ** (-1.0 - epsilon)
    return fraction, bound


# ---------------------------------------------------------------------------
# Chain inequality and the scale comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainCheck:
    lhs: float
    mid: float
    rhs: float
    passed: bool


def chain_inequality_check(terms: Sequence[float], n: int) -> ChainCheck:
    """(sum_{k<=n} F_k)^2 <= s sum_{L(n)} (block sums)^2 <= s sum_{L_s} (...)^2
    with s = s_of(n); terms beyond n are treated as zero."""
    if n < 1:
        raise DomainError("need n >= 1")
    arr = np.zeros(1 << s_of(n), dtype=np.float64)
    given = np.asarray(terms, dtype=np.float64)
    if given.size < n:
        raise ShapeMismatch(f"need at least n={n} terms, got {given.size}")
    arr[:n] = given[:n]
    s = s_of(n)
    lhs = float(arr[:n].sum()) ** 2
    mid = s * sum(
        float(arr[block.lo - 1: block.hi].sum()) ** 2 for block in decompose(n, s)
    )
    rhs = s * float(variance_profile(arr[None, :], s).per_point_totals[0])
    scale = max(abs(lhs), abs(mid), abs(rhs), 1.0)
    tol = 1e-9 * scale
    passed = lhs <= mid + tol and mid <= rhs + tol
    return ChainCheck(lhs=lhs, mid=mid, rhs=rhs, passed=passed)


def power_gap_check(m: int, n: int, epsilon: float) -> tuple[float, float, bool]:
    """(n - m)^(1+eps) <= n^(1+eps) - m^(1+eps) with constant 1, for 0 <= m < n."""
    if not (0 <= m < n):
        raise DomainError("need 0 <= m < n")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    e = 1.0 + epsilon
    lhs = float((n - m) ** e)
    rhs = float(n ** e - m ** e)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-12) + 1e-12


def ks_ratio_bound(sigma: float, epsilon: float, n_max: int) -> tuple[float, int]:
    """max over 2 <= n <= n_max of
    2^(s(n) sigma / 2) s(n)^(3/2+eps) / (n^(sigma/2) log^(3/2+eps) n),
    returned with its argmax.  Natural logarithm."""
    if sigma <= 0 or epsilon <= 0:
        raise DomainError("sigma and epsilon must be positive")
    if n_max < 4:
        raise DomainError("need n_max >= 4")
    n = np.arange(2, n_max + 1, dtype=np.int64)
    s = np.frexp(n.astype(np.float64))[1]  # exact bit length for n < 2^53
    expo = 1.5 + epsilon
    log_ratio = (
        0.5 * sigma * s * np.log(2.0)
        + expo * np.log(s)
        - 0.5 * sigma * np.log(n)
        - expo * np.log(np.log(n))
    )
    best = int(np.argmax(log_ratio))
    return float(np.exp(log_ratio[best])), int(n[best])


# ---------------------------------------------------------------------------
# The growth-exponent fit
# ---------------------------------------------------------------------------

def sigma_fit(ns: Sequence[int], e_values: Sequence[float]) -> RateFit:
    """Least-squares slope of log E(0, N) against log N over a dyadic grid.

    The returned fit records the growth exponent sigma-hat as ``exponent``
    under the polynomial model.
    """
    ns = [int(v) for v in ns]
    if len(ns) < 4:
        raise InsufficientData("need at least 4 grid points")
    for v in ns:
        if v < 2 or v & (v - 1):
            raise DomainError(f"grid point {v} is not a power of two >= 2")
    e = np.asarray(e_values, dtype=np.float64)
    if e.size != len(ns) or (e <= 0).any():
        raise DomainError("need one positive E value per grid point")
    fit = fit_model(np.asarray(ns, dtype=np.float64), e, POLYNOMIAL_MODEL)
    return dataclasses.replace(fit, exponent=-fit.exponent)
