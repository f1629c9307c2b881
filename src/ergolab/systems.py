"""Measure-preserving example systems and their observables.

Two families are implemented exactly:

* subshifts of finite type carrying a stationary Markov measure (the
  Gibbs measure of a locally constant potential), sampled only at the
  finite set of positions an experiment reads;
* hyperbolic toral automorphisms acting on the fixed-point lattice
  ``2^-q Z^d / Z^d``, where an integer unimodular matrix acts exactly by
  modular square-and-multiply; many lattice points at once are numpy
  arrays of 32-bit limbs with exact schoolbook arithmetic mod 2^q.

Observables are locally constant (cylinder) functions on shifts and real
trigonometric polynomials on the torus; both support exact means.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Sized

import numpy as np

from . import intmat
from .errors import (
    DomainError,
    IncompatibleSupport,
    NotAperiodic,
    NotStochastic,
    ReadOnly,
    VariantMismatch,
    WindowExhausted,
)

ROW_SUM_TOLERANCE = 1e-9
STATIONARY_RESIDUAL = 1e-12
UNIT_MODULUS_TOLERANCE = 1e-9
# Largest dense table over words (cylinder values, transfer-oracle states).
STATE_LIMIT = 1 << 22


# ---------------------------------------------------------------------------
# Shift systems
# ---------------------------------------------------------------------------

class ShiftSystem(ReadOnly):
    """Aperiodic subshift of finite type with its stationary Markov measure:
    the (m, m) 0/1 ``adjacency``, the (m, m) row-stochastic ``transition``
    supported on it and the (m,) positive left fixed vector ``stationary``."""

    def __init__(self, alphabet_size: int, adjacency, transition, stationary):
        vars(self).update(
            alphabet_size=alphabet_size, adjacency=adjacency, transition=transition,
            stationary=stationary, _powers={},
        )

    def transition_power(self, gap: int) -> np.ndarray:
        """P^gap for gap >= 1 by square-and-multiply, cached on the system
        per gap.  Each product's rows are divided by their sums, so row
        sums stay 1 to rounding at any gap instead of drifting as
        (1 + eps)^gap; P^1 is ``transition`` itself."""
        if gap < 1:
            raise DomainError(f"gap must be >= 1, got {gap}")
        if gap == 1:
            return self.transition
        if gap not in self._powers:
            power, square, rest = None, self.transition, gap
            while True:
                if rest & 1:
                    power = square if power is None else _stochastic(power @ square)
                rest >>= 1
                if not rest:
                    break
                square = _stochastic(square @ square)
            power.setflags(write=False)
            self._powers[gap] = power
        return self._powers[gap]

    def word_probability(self, word: Sequence[int]) -> float:
        """Stationary probability of a finite admissible word; 0 otherwise,
        as for a word with a symbol outside the alphabet."""
        w = list(word)
        if not all(0 <= s < self.alphabet_size for s in w):
            return 0.0
        p = float(self.stationary[w[0]])
        for a, b in zip(w, w[1:]):
            p *= float(self.transition[a, b])
        return p


def _stochastic(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` with each row divided by its sum."""
    return matrix / matrix.sum(axis=1, keepdims=True)


def _is_aperiodic(adjacency: np.ndarray) -> bool:
    m = adjacency.shape[0]
    bound = (m - 1) ** 2 + 1
    reach = adjacency > 0
    power = reach.copy()
    for _ in range(bound):
        if power.all():
            return True
        power = (power.astype(np.int64) @ reach.astype(np.int64)) > 0
    return False


def build_shift(adjacency, transition) -> ShiftSystem:
    """Validate matrices, compute the stationary vector, freeze the system.

    Transition rows are accepted when they sum to 1 within 1e-9 and are
    renormalized afterwards, so the stored rows sum to 1 to machine
    precision.
    """
    adjacency = np.asarray(adjacency, dtype=np.int64)
    transition = np.asarray(transition, dtype=np.float64).copy()
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise DomainError("adjacency must be a square matrix")
    if transition.shape != adjacency.shape:
        raise DomainError("transition shape must match adjacency")
    m = adjacency.shape[0]
    if m < 2:
        raise DomainError("alphabet size must be at least 2")
    if not np.isin(adjacency, (0, 1)).all():
        raise DomainError("adjacency entries must be 0 or 1")
    if (transition < 0).any():
        raise DomainError("transition entries must be nonnegative")

    support = transition > 0
    if not (support == (adjacency == 1)).all():
        bad = np.argwhere(support != (adjacency == 1))[0]
        raise IncompatibleSupport(
            f"transition support mismatches adjacency at entry ({bad[0]}, {bad[1]})"
        )

    row_sums = transition.sum(axis=1)
    worst = int(np.argmax(np.abs(row_sums - 1.0)))
    if abs(row_sums[worst] - 1.0) > ROW_SUM_TOLERANCE:
        raise NotStochastic(
            f"row {worst} sums to {row_sums[worst]!r}, deviation exceeds 1e-9"
        )
    transition /= row_sums[:, None]

    if not _is_aperiodic(adjacency):
        raise NotAperiodic(
            f"no power of the adjacency matrix up to {(m - 1) ** 2 + 1} is positive"
        )

    # Left fixed vector: replace one balance equation by the normalization.
    a = transition.T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    stationary = np.linalg.solve(a, b)
    residual = np.max(np.abs(stationary @ transition - stationary))
    if residual > STATIONARY_RESIDUAL:
        # One step of iterative refinement; aperiodic chains contract fast.
        stationary = stationary @ np.linalg.matrix_power(transition, 64)
        stationary /= stationary.sum()
        residual = np.max(np.abs(stationary @ transition - stationary))
        if residual > STATIONARY_RESIDUAL:
            raise NotStochastic(f"stationary residual {residual:g} exceeds 1e-12")
    if (stationary <= 0).any():
        raise NotStochastic("stationary vector has a nonpositive entry")

    adjacency.setflags(write=False)
    transition.setflags(write=False)
    stationary.setflags(write=False)
    return ShiftSystem(m, adjacency, transition, stationary)


def bernoulli_system(probabilities: Sequence[float]) -> ShiftSystem:
    """Full shift with an i.i.d. product measure (all-ones adjacency)."""
    p = np.asarray(probabilities, dtype=np.float64)
    m = p.size
    return build_shift(np.ones((m, m), dtype=np.int64), np.tile(p, (m, 1)))


class ShiftPoint(NamedTuple):
    """A bi-infinite admissible sequence, known at the positions sampled.

    ``symbols[k]`` is the symbol at absolute position ``positions[k]``
    (sorted, distinct); the current point sees index ``i`` at absolute
    position ``offset + i``, so shifting only moves ``offset``.  Reading a
    position that was not sampled is a hard error, never a silent
    extension.  ``symbols`` may also be a (count, len(positions)) block of
    sequences sampled at the same positions, which ``cylinder_products``
    evaluates row by row.
    """

    positions: np.ndarray
    symbols: np.ndarray
    offset: int = 0

    def columns(self, indices) -> np.ndarray:
        """Entries of ``symbols`` holding the given indices of the current point."""
        return word_columns(self.positions, 0, indices, self.offset)[0]

    def symbol(self, index: int) -> int:
        return int(self.symbols[self.columns(index)])

    def word(self, radius: int) -> tuple[int, ...]:
        return tuple(int(s) for s in self.symbols[self.columns(np.arange(-radius, radius + 1))])


def word_columns(positions: np.ndarray, radius: int, indices, offset: int = 0) -> np.ndarray:
    """Entries of the sorted sample ``positions`` that hold the words of
    ``radius`` around ``indices`` of a point whose origin is at ``offset``:
    shape (2 radius + 1,) + indices.shape, row i for letter i of each word.
    A block of sequences sampled at ``positions`` reads its words through
    the same columns, so they are resolved once for all of them.  Raises
    WindowExhausted when a position was not sampled."""
    at = np.asarray(indices, dtype=np.int64) + offset
    at = at + np.arange(-radius, radius + 1).reshape((-1,) + (1,) * at.ndim)
    cols = np.searchsorted(positions, at)
    found = np.take(positions, cols, mode="clip") == at
    if not found.all():
        index = int(at[~found][0]) - offset
        raise WindowExhausted(f"index {index} at offset {offset} was not sampled")
    return cols


def shift_apply(point: ShiftPoint, n: int) -> ShiftPoint:
    """Advance the origin by n; symbols are shared, never copied."""
    return point._replace(offset=point.offset + int(n))


# Items per vectorized slab: the sampler resolves paths in slabs of about
# this many symbols, so its comparison scratch stays small whatever the
# batch width; the term generator makes each row slab of about this many
# terms from start to finish, its symbols included, and the dyadic
# reduction cuts what it is given the same way.  ``sample_rows`` draws an
# i.i.d. chain one row of uniforms at a time, a slab's rows when the slab
# is made; any other chain still takes one (rows, positions) block of
# uniforms and yields slices of its symbols.
SLAB_ITEMS = 1 << 16
# Most sequences one path-kernel call steps at once, which keeps its
# per-step temporaries small on wide batches; also the most entries of
# factor scratch (word codes, letters, values) that ``factor_scratch`` gives
# the term generator and the Monte Carlo kernel, so ``cylinder_products``
# runs in lane blocks.
LANES = SLAB_ITEMS >> 3


def _symbol_dtype(alphabet_size: int):
    return np.int8 if alphabet_size <= 127 else np.int64


def _thresholds(weights: np.ndarray) -> np.ndarray:
    """Cumulative weights without the total: uniform u draws #{t <= u}."""
    return np.cumsum(weights, axis=-1)[..., :-1]


def _next_symbols(tables: np.ndarray, table, current: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One chain step: #{tables[table, current] <= u}, elementwise."""
    symbols = (u >= tables[table, current, 0]).astype(np.intp)
    for j in range(1, tables.shape[2]):
        symbols += u >= tables[table, current, j]
    return symbols


def _iid_symbols(thresholds: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """out[...] = #{thresholds <= u}, elementwise, for one threshold row."""
    np.greater_equal(u, thresholds[0], out=out)
    for t in thresholds[1:]:
        out += u >= t


def _markov_path(
    tables: np.ndarray, which: np.ndarray, start: np.ndarray, u: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Symbols of ``count`` chain runs resolved from fixed uniforms.

    ``tables`` is (K, m, m - 1): row s of table k holds ``_thresholds`` of
    the weights out of state s, and column i of the run steps by table
    ``which[i]``.  ``start`` is (count,) and ``u`` is (count, L).  Column i
    of the result is ``#{tables[which[i], s] <= u[:, i]}`` with s the
    symbol of column i - 1 (``start`` for column 0): exactly the symbols a
    per-step loop gives.  They go into ``out``, a (count, L) array, which
    is returned.

    An i.i.d. chain (every row of every table equal) needs no chaining:
    m - 1 vectorized comparisons over ``u``.  Otherwise the run
    is cut into a head and ``blocks - 1`` equal blocks.  The blocks run
    from every state at once, each column by its own table, which gives
    each block's exit state per entry state; the head runs from ``start``;
    the entries are chained block to block; and the blocks run again from
    their entries.  That is about 3 L / blocks + blocks vectorized steps
    in place of L.
    """
    count, length = u.shape
    if (tables == tables[0, 0]).all():
        _iid_symbols(tables[0, 0], u, out)
        return out
    m = tables.shape[1]
    blocks = math.isqrt(length // max(count, 1))
    if blocks < 4:  # fewer blocks cost more steps than they save
        blocks = 1
    size = length // blocks
    head = length - (blocks - 1) * size
    current = start
    for i in range(head):
        current = _next_symbols(tables, which[i], current, u[:, i])
        out[:, i] = current
    if blocks == 1:
        return out
    body = u[:, head:].reshape(count, blocks - 1, size)
    steps = which[head:].reshape(blocks - 1, size)
    exits = np.broadcast_to(np.arange(m), (count, blocks - 1, m))
    for i in range(size):
        exits = _next_symbols(tables, steps[:, i, None], exits, body[:, :, i, None])
    entry = np.empty((count, blocks - 1), dtype=np.int64)
    entry[:, 0] = current
    rows = np.arange(count)
    for k in range(1, blocks - 1):
        entry[:, k] = exits[rows, k - 1, entry[:, k - 1]]
    path = out[:, head:].reshape(count, blocks - 1, size)
    current = entry
    for i in range(size):
        current = _next_symbols(tables, steps[:, i], current, body[:, :, i])
        path[:, :, i] = current
    return out


def sorted_union(arrays) -> np.ndarray:
    """Sorted distinct values of integer arrays, by a sort and a neighbour
    test.  ``np.unique`` would give the same, but its first call imports
    ``numpy.ma`` (about 8 ms per process, at every ``validate``)."""
    values = np.sort(np.concatenate([np.ravel(a) for a in arrays]).astype(np.int64, copy=False))
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def read_plan(observables, shifts) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """What a product of cylinder factors reads when factor i is read at
    ``shifts[i]``, an integer or an int64 array of them: the sorted
    distinct positions of shifts[i] + [-radius_i, radius_i] over all
    factors, and each factor's ``word_columns`` in them.  Both are
    read-only, so the samples that read the plan share it."""
    shifts = [np.asarray(s, dtype=np.int64) for s in shifts]
    positions = sorted_union(
        s[..., None] + np.arange(-obs.radius, obs.radius + 1)
        for obs, s in zip(observables, shifts)
    )
    columns = tuple(word_columns(positions, obs.radius, s) for obs, s in zip(observables, shifts))
    for array in (positions, *columns):
        array.setflags(write=False)
    return positions, columns


def _is_iid(system: ShiftSystem) -> bool:
    """Whether every row of P is the same, so that P^g = P for every g."""
    return bool((system.transition == system.transition[0]).all())


def _gap_tables(system: ShiftSystem, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Threshold tables of P^g, one per distinct gap g, and each gap's table."""
    if _is_iid(system):
        return _thresholds(system.transition)[None], np.zeros(gaps.size, dtype=np.intp)
    distinct, which = np.unique(gaps, return_inverse=True)
    powers = [system.transition_power(int(g)) for g in distinct] or [system.transition]
    return _thresholds(np.stack(powers)), which


def _checked_gaps(positions) -> tuple[np.ndarray, np.ndarray]:
    """``positions`` as int64 and their gaps; raises DomainError unless
    they are a sorted 1-d array of distinct integers."""
    positions = np.asarray(positions, dtype=np.int64)
    gaps = np.diff(positions) if positions.ndim == 1 else None
    if gaps is None or (gaps <= 0).any():
        raise DomainError("sample positions must be a sorted 1-d array of distinct integers")
    return positions, gaps


def _sample_path(system: ShiftSystem, positions, count: int, uniforms, out=None) -> np.ndarray:
    """Symbols of ``count`` stationary sequences at sorted distinct
    ``positions``, resolved from ``uniforms(lo, hi)``: the (count, hi - lo)
    uniforms of positions lo..hi-1, asked for in ascending slabs.  Slabs
    hold max(1, ``SLAB_ITEMS`` // count) positions.  The symbols go into
    ``out`` when it is given."""
    positions, gaps = _checked_gaps(positions)
    if out is None:
        out = np.empty((count, positions.size), dtype=_symbol_dtype(system.alphabet_size))
    if not positions.size:
        return out
    tables, which = _gap_tables(system, gaps)
    # #{t <= u} over the stationary thresholds, as searchsorted(side="right")
    # counts it, written in place.
    _iid_symbols(_thresholds(system.stationary), uniforms(0, 1)[:, 0], out[:, 0])
    step = max(1, SLAB_ITEMS // max(count, 1))
    for lo in range(1, positions.size, step):
        hi = min(lo + step, positions.size)
        u = uniforms(lo, hi)
        # Lanes are independent: kernel calls of at most LANES lanes give
        # the same symbols and keep its temporaries small.
        for a in range(0, count, LANES):
            b = min(a + LANES, count)
            _markov_path(tables, which[lo - 1:hi - 1], out[a:b, lo - 1], u[a:b], out[a:b, lo:hi])
    return out


def sample_at(
    system: ShiftSystem, positions, count: int, rng: np.random.Generator, out=None, scratch=None
) -> np.ndarray:
    """Symbols of ``count`` stationary sequences at sorted distinct
    ``positions``, shape (count, len(positions)); no other position is drawn.

    The first position is drawn from the stationary vector and each later
    one from row ``P^g[previous]``, g the gap to the previous position: by
    Chapman-Kolmogorov that is the exact joint law of the chain at those
    positions.  Draw order is fixed: uniform ``c * count + j`` resolves
    position c of sequence j.  Positions are drawn in slabs of several at
    once, which is the same stream, and ``_markov_path`` resolves each slab.

    A loop that samples many times can pass arrays to reuse: ``out``, the
    (count, len(positions)) array of the symbol dtype that receives the
    symbols, and ``scratch``, a float64 array of max(``SLAB_ITEMS``, count)
    entries, which holds any slab's uniforms.
    """
    def uniforms(lo, hi):
        if scratch is None:
            return rng.random((hi - lo, count)).T
        return rng.random(out=scratch[: (hi - lo) * count].reshape(hi - lo, count)).T

    return _sample_path(system, positions, count, uniforms, out)


def sample_rows(
    system: ShiftSystem, positions, rngs: Iterable[np.random.Generator], slab_rows: int
) -> Iterator[np.ndarray]:
    """Slabs of up to ``slab_rows`` rows in row order, where row j is
    ``sample_at(system, positions, 1, rngs[j])[0]``.

    Each row draws its ``len(positions)`` uniforms from its own stream,
    and draws them before the next stream is taken, so ``rngs`` may yield
    one generator reset to each stream in turn (``seeding.Streams``).
    ``rngs`` may be lazy: an i.i.d. chain takes the next stream only when
    it draws that row, into one reused row of uniforms, and resolves the
    row at once: position 0 by the stationary thresholds, every later one
    by the common row of P, the comparisons ``_markov_path`` makes.  Its
    slabs are views of one reused block, so a slab holds its rows until
    the next is asked for.  Any other chain takes every stream at the call
    and steps all rows together as lanes of the kernel ``sample_at`` uses,
    from one (rows, positions) block of uniforms, and yields slices of the
    symbols; ``rngs`` with a length fill that block row by row.
    """
    positions, _ = _checked_gaps(positions)
    if slab_rows < 1:
        raise DomainError("need at least one row per slab")
    if _is_iid(system) and positions.size:
        return _iid_row_slabs(system, positions, iter(rngs), slab_rows)
    if isinstance(rngs, Sized):
        u = np.empty((len(rngs), positions.size), dtype=np.float64)
        for row, rng in zip(u, rngs):
            rng.random(out=row)
    else:
        drawn = [rng.random(positions.size) for rng in rngs]
        u = np.array(drawn, dtype=np.float64).reshape(len(drawn), positions.size)
    rows = _sample_path(system, positions, u.shape[0], lambda lo, hi: u[:, lo:hi])
    return (rows[lo:lo + slab_rows] for lo in range(0, rows.shape[0], slab_rows))


def _iid_row_slabs(system: ShiftSystem, positions: np.ndarray, rngs: Iterator, slab_rows: int):
    """An i.i.d. chain's row slabs, each row drawn and resolved as its
    stream is taken."""
    thresholds = _thresholds(system.transition)[0]
    stationary = _thresholds(system.stationary)
    out = np.empty((slab_rows, positions.size), dtype=_symbol_dtype(system.alphabet_size))
    u = np.empty(positions.size, dtype=np.float64)
    first = np.empty(slab_rows, dtype=np.float64)
    while True:
        rows = 0
        for rng in itertools.islice(rngs, slab_rows):
            rng.random(out=u)
            first[rows] = u[0]
            _iid_symbols(thresholds, u[1:], out[rows, 1:])
            rows += 1
        if not rows:
            return
        _iid_symbols(stationary, first[:rows], out[:rows, 0])
        yield out[:rows]


# ---------------------------------------------------------------------------
# Toral automorphisms
# ---------------------------------------------------------------------------

DEFAULT_PRECISION_BITS = 128


class TorusAutomorphism(ReadOnly):
    """Integer unimodular matrix acting on the 2^-q fixed-point torus model."""

    def __init__(self, matrix: intmat.IntMatrix, precision_bits: int = DEFAULT_PRECISION_BITS):
        vars(self).update(matrix=intmat.as_int_matrix(matrix), precision_bits=precision_bits)
        if self.dimension < 2:
            raise DomainError("torus dimension must be >= 2")
        if self.precision_bits < 1:
            raise DomainError("precision_bits must be >= 1")
        det = intmat.mat_det(self.matrix)
        if det not in (1, -1):
            raise DomainError(f"matrix determinant is {det}, must be +-1")
        try:
            floats = np.array(self.matrix, dtype=np.float64)
        except OverflowError:
            raise DomainError("matrix entries must lie within the float64 range") from None
        moduli = np.abs(np.linalg.eigvals(floats))
        if np.any(np.abs(moduli - 1.0) < UNIT_MODULUS_TOLERANCE):
            raise DomainError(
                "matrix has an eigenvalue of modulus within 1e-9 of 1 (not hyperbolic)"
            )

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @property
    def modulus(self) -> int:
        return 1 << self.precision_bits

    def inverse_matrix(self) -> intmat.IntMatrix:
        return intmat.mat_inverse_unimodular(self.matrix)


def build_torus(matrix, precision_bits: int = DEFAULT_PRECISION_BITS) -> TorusAutomorphism:
    return TorusAutomorphism(matrix=matrix, precision_bits=precision_bits)


class TorusPoint(ReadOnly):
    """Lattice point: coordinate i is coords[i] / 2^precision_bits mod 1."""

    def __init__(self, coords: tuple[int, ...], precision_bits: int = DEFAULT_PRECISION_BITS):
        vars(self).update(coords=tuple(int(c) for c in coords), precision_bits=precision_bits)
        mod = 1 << self.precision_bits
        if any(not (0 <= c < mod) for c in self.coords):
            raise DomainError("coordinates must lie in [0, 2^q)")


def torus_point_from_fractions(auto: TorusAutomorphism, values: Sequence) -> TorusPoint:
    """Build a point from exact rationals (Fraction, int or 'p/q' strings)."""
    from fractions import Fraction

    mod = auto.modulus
    coords = [int(Fraction(v) * mod) % mod for v in values]
    return TorusPoint(tuple(coords), auto.precision_bits)


def sample_torus_point(auto: TorusAutomorphism, seed) -> TorusPoint:
    """Uniform draw from the 2^-q coordinate lattice (exact Haar on the model)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    q = auto.precision_bits
    words = (q + 63) // 64
    coords = []
    for _ in range(auto.dimension):
        value = 0
        for w in range(words):
            value |= int(rng.integers(0, 1 << 64, dtype=np.uint64)) << (64 * w)
        coords.append(value % auto.modulus)
    return TorusPoint(tuple(coords), q)


def torus_matrix_power(auto: TorusAutomorphism, n: int) -> intmat.IntMatrix:
    """matrix^n reduced mod 2^q; negative n uses the exact integer inverse."""
    mod = auto.modulus
    if n >= 0:
        return intmat.mat_pow(auto.matrix, n, mod)
    return intmat.mat_pow(auto.inverse_matrix(), -n, mod)


def torus_apply_power(auto: TorusAutomorphism, point: TorusPoint, n: int) -> TorusPoint:
    """coords <- matrix^n coords mod 2^q, exactly."""
    if point.precision_bits != auto.precision_bits:
        raise VariantMismatch("point and automorphism precision differ")
    power = torus_matrix_power(auto, n)
    return TorusPoint(intmat.mat_vec(power, point.coords, auto.modulus), auto.precision_bits)


def _walk(matrix: intmat.IntMatrix, coords: tuple[int, ...], targets, mod: int) -> list:
    """matrix^n coords mod ``mod`` for ascending n >= 0 in ``targets``.

    Each gap from one target to the next is crossed with the powers
    matrix^(2^j) of its set bits, from a table grown by squaring.
    """
    table = [tuple(tuple(x % mod for x in row) for row in matrix)]
    out = []
    at = 0
    for n in targets:
        gap, j = n - at, 0
        while gap:
            if j == len(table):
                table.append(intmat.mat_mul(table[-1], table[-1], mod))
            if gap & 1:
                coords = intmat.mat_vec(table[j], coords, mod)
            gap >>= 1
            j += 1
        out.append(coords)
        at = n
    return out


def torus_orbit(auto: TorusAutomorphism, point: TorusPoint, exponents) -> list[tuple[int, ...]]:
    """Coordinates of matrix^n point for sorted distinct exponents n, exactly.

    The orbit is walked outward from n = 0, forward with the matrix and
    backward with its inverse; each step costs one modular ``mat_vec`` per
    set bit of the gap, and the power tables hold O(log max |n|) matrices.
    """
    if point.precision_bits != auto.precision_bits:
        raise VariantMismatch("point and automorphism precision differ")
    exponents = [int(n) for n in exponents]
    mod = auto.modulus
    back = [-n for n in reversed(exponents) if n < 0]
    ahead = [n for n in exponents if n >= 0]
    out = _walk(auto.inverse_matrix(), point.coords, back, mod)[::-1] if back else []
    return out + _walk(auto.matrix, point.coords, ahead, mod)


# ---------------------------------------------------------------------------
# Exact limb arithmetic on the torus model
# ---------------------------------------------------------------------------
#
# Many lattice points at once are uint64 arrays of 32-bit limbs, least
# significant first, shaped (count, d, ceil(q / 32)).  A product of two
# limbs fits in 64 bits, so <k, x> mod 2^q is schoolbook multiplication
# (Knuth, TAOCP vol. 2, 4.3.1): each limb product is split into its low
# and high halves, the halves are summed per result limb, and the carries
# are propagated once at the end.  ``intmat`` and ``evaluate`` stay the
# big-integer reference.

_LIMB_BITS = 32
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
# Points per vectorized slab: keeps each scratch array of the limb kernel
# small whatever the number of points.
TORUS_SLAB = 1 << 11


def _limb_count(precision_bits: int) -> int:
    return -(-precision_bits // _LIMB_BITS)


def _top_limb_mask(precision_bits: int) -> np.uint64:
    top_bits = precision_bits - _LIMB_BITS * (_limb_count(precision_bits) - 1)
    return np.uint64((1 << top_bits) - 1)


def sample_torus_limbs(auto: TorusAutomorphism, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform lattice points as limbs, shape (count, d, ceil(q / 32)).

    One ``rng.integers`` call draws the 64-bit words in the order that
    ``count`` successive ``sample_torus_point`` calls draw them, so the
    points are the same.  The array is a view of (d, L, count) memory,
    the layout ``trig_values`` works in.
    """
    q = auto.precision_bits
    words = (q + 63) // 64
    raw = rng.integers(0, 1 << 64, size=(count, auto.dimension, words), dtype=np.uint64)
    halves = raw.astype("<u8", copy=False).view("<u4")  # low 32 bits first
    limbs = halves[..., :_limb_count(q)].transpose(1, 2, 0).astype(np.uint64, order="C")
    limbs[:, -1] &= _top_limb_mask(q)
    return limbs.transpose(2, 0, 1)


def torus_limbs(coords: Sequence[Sequence[int]], precision_bits: int) -> np.ndarray:
    """Limbs of integer vectors reduced mod 2^q, shape (len(coords), d, ceil(q / 32))."""
    width = _limb_count(precision_bits)
    mod = 1 << precision_bits
    data = b"".join((int(c) % mod).to_bytes(4 * width, "little") for v in coords for c in v)
    words = np.frombuffer(data, dtype="<u4").astype(np.uint64)
    return words.reshape(len(coords), -1, width)


def _negated(x: np.ndarray, precision_bits: int) -> np.ndarray:
    """-x mod 2^q for (d, L, count) limbs: invert every limb, then add 1."""
    out = x ^ _LIMB_MASK
    out[:, 0] += np.uint64(1)
    for t in range(x.shape[1] - 1):  # a carry leaves limb t only when x's limbs 0..t are all 0
        out[:, t + 1] += out[:, t] >> np.uint64(_LIMB_BITS)
        out[:, t] &= _LIMB_MASK
    out[:, -1] &= _top_limb_mask(precision_bits)
    return out


def _limb_dot(magnitude, negative, x, x_neg, precision_bits: int) -> np.ndarray:
    """<k, x> mod 2^q as limbs (L, count).

    ``magnitude`` is (d, L), the limbs of |k_i| mod 2^q, and a coordinate
    with k_i < 0 multiplies -x_i (``x_neg``, or None when no k_i < 0), so a
    small negative frequency costs as few limb products as a positive one.
    ``x`` is (d, L, count).
    """
    d, width, count = x.shape
    acc = np.zeros((width + 1, count), dtype=np.uint64)
    shift = np.uint64(_LIMB_BITS)
    for i in range(d):
        xi = x_neg[i] if negative[i] else x[i]
        for a in range(width):
            k = magnitude[i, a]
            if not k:
                continue
            prod = xi[:width - a] * k
            acc[a:width] += prod & _LIMB_MASK
            acc[a + 1:] += prod >> shift
    for t in range(width - 1):
        acc[t + 1] += acc[t] >> shift
        acc[t] &= _LIMB_MASK
    acc[width - 1] &= _top_limb_mask(precision_bits)
    return acc[:width]


def _limb_phases(dot: np.ndarray, precision_bits: int) -> np.ndarray:
    """dot / 2^q rounded to nearest, ties to even: Python's exact ``int / int``.

    Each value is first moved up by whole limbs until its top limb is
    nonzero (no move at all for most values).  The top limb and the two
    below it then hold the 64 bits below the leading one; any bit lower
    down is ORed into bit 0 as a sticky bit, and the uint64 -> float64
    cast does the one rounding.  ``ldexp`` scales exactly while 2^-q is a
    normal double (q <= 1022).
    """
    width, count = dot.shape
    padded = np.concatenate([np.zeros((2, count), dtype=np.uint64), dot])
    exponent = np.full(count, _LIMB_BITS * (width - 2) - precision_bits, dtype=np.int64)
    for _ in range(width - 1):
        empty = padded[-1] == 0
        if not empty.any():
            break
        padded = np.where(empty, np.roll(padded, 1, axis=0), padded)
        exponent -= _LIMB_BITS * empty
    lo, mid, hi = padded[-3:]
    sticky = (padded[:-3] != 0).any(axis=0)
    # Leading zeros of the 32-bit top limb, from its exact float exponent.
    zeros = np.where(hi == 0, 0, _LIMB_BITS - np.frexp(hi.astype(np.float64))[1]).astype(np.uint64)
    room = np.uint64(_LIMB_BITS) - zeros
    sticky |= (lo & ((np.uint64(1) << room) - np.uint64(1))) != 0
    bits = (hi << (np.uint64(_LIMB_BITS) + zeros)) | (mid << zeros) | (lo >> room)
    bits |= sticky.astype(np.uint64)
    return np.ldexp(bits.astype(np.float64), exponent - zeros.astype(np.int64))


def _trig_term(a: float, b: float, phase: np.ndarray) -> np.ndarray:
    """a cos(phase) + b sin(phase).  A zero coefficient's product is a
    signed zero, which leaves a sum that starts at +0.0 bit for bit as it
    is, so its sine or cosine is not computed."""
    if not b:
        return a * np.cos(phase)
    if not a:
        return b * np.sin(phase)
    return a * np.cos(phase) + b * np.sin(phase)


def trig_values(terms, limbs: np.ndarray, precision_bits: int) -> np.ndarray:
    """Sum of a cos(2 pi <k, x>) + b sin(2 pi <k, x>) over ``terms`` (k, a, b)
    at every point of a (count, d, L) limb array.

    Integer frequencies of any size and sign are reduced mod 2^q.  The
    phases equal the big-integer ``dot / 2^q`` bit for bit and the terms
    are summed in the same order, so each value is the one ``evaluate``
    gives at that point.  Points are taken in slabs of ``TORUS_SLAB``,
    which bounds the scratch memory.
    """
    count, d, _width = limbs.shape
    freqs = []
    for freq, a, b in terms:
        if len(freq) != d:
            raise VariantMismatch("frequency dimension does not match the point")
        magnitude = torus_limbs([[abs(k) for k in freq]], precision_bits)[0]
        freqs.append((magnitude, [k < 0 for k in freq], a, b))
    signed = any(any(negative) for _, negative, _, _ in freqs)
    two_pi = 2.0 * math.pi
    total = np.zeros(count, dtype=np.float64)
    for lo in range(0, count, TORUS_SLAB):
        x = np.ascontiguousarray(np.moveaxis(limbs[lo:lo + TORUS_SLAB], 0, -1))
        x_neg = _negated(x, precision_bits) if signed else None
        part = total[lo:lo + TORUS_SLAB]
        for magnitude, negative, a, b in freqs:
            dot = _limb_dot(magnitude, negative, x, x_neg, precision_bits)
            part += _trig_term(a, b, two_pi * _limb_phases(dot, precision_bits))
    return total


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

CYLINDER = "cylinder"
TRIG = "trig"


class Observable(ReadOnly):
    """Locally constant function on a shift, or trig polynomial on the torus.

    Cylinder variant: value at a point is ``table[word]`` for the word of
    symbols at indices ``-radius..radius`` around the current origin, with
    ``default`` for admissible words absent from the table.  Trig variant:
    sum of ``a cos(2 pi <k, x>) + b sin(2 pi <k, x>)`` over ``terms``
    entries ``(k, a, b)`` with pairwise distinct integer frequencies.
    """

    def __init__(
        self, variant: str, radius: int = 0, table: Mapping[tuple[int, ...], float] | None = None,
        default: float = 0.0, terms: tuple[tuple[tuple[int, ...], float, float], ...] | None = None,
    ):
        vars(self).update(variant=variant, radius=radius, table=table, default=default, terms=terms)
        if self.variant == CYLINDER:
            if self.radius < 0:
                raise DomainError("cylinder radius must be >= 0")
            width = 2 * self.radius + 1
            table = {}
            for word, value in (self.table or {}).items():
                word = tuple(int(s) for s in word)
                if len(word) != width:
                    raise DomainError(
                        f"table word {word} has length {len(word)}, expected {width}"
                    )
                value = float(value)
                if not np.isfinite(value):
                    raise DomainError("cylinder values must be finite")
                table[word] = value
            if not np.isfinite(float(self.default)):
                raise DomainError("cylinder default must be finite")
            vars(self)["table"] = table
        elif self.variant == TRIG:
            terms = tuple(
                (tuple(int(k) for k in freq), float(a), float(b))
                for freq, a, b in (self.terms or ())
            )
            if not np.isfinite([c for _, a, b in terms for c in (a, b)]).all():
                raise DomainError("trig coefficients must be finite")
            freqs = [t[0] for t in terms]
            if len(set(freqs)) != len(freqs):
                raise DomainError("trig frequency vectors must be pairwise distinct")
            dims = {len(f) for f in freqs}
            if len(dims) > 1:
                raise DomainError("trig frequency vectors must share one dimension")
            vars(self)["terms"] = terms
        else:
            raise DomainError(f"unknown observable variant {self.variant!r}")


def cylinder_observable(radius: int, table: Mapping, default: float = 0.0) -> Observable:
    return Observable(variant=CYLINDER, radius=radius, table=table, default=default)


def cylinder_indicator(word: Sequence[int]) -> Observable:
    """Indicator of a word centered at the origin; word length must be odd."""
    word = tuple(int(s) for s in word)
    if len(word) % 2 != 1:
        raise DomainError("indicator words must have odd length")
    return cylinder_observable((len(word) - 1) // 2, {word: 1.0})


def centered_cylinder_indicator(system: ShiftSystem, word: Sequence[int]) -> Observable:
    """Indicator of a word minus its exact stationary probability."""
    word = tuple(int(s) for s in word)
    p = system.word_probability(word)
    return cylinder_observable((len(word) - 1) // 2, {word: 1.0 - p}, default=-p)


def trig_observable(terms: Sequence) -> Observable:
    return Observable(variant=TRIG, terms=tuple(terms))


def trig_cosine(freq: Sequence[int], amplitude: float = 1.0) -> Observable:
    return trig_observable([(tuple(freq), amplitude, 0.0)])


def evaluate(observable: Observable, point) -> float:
    """Evaluate an observable at a point of the matching variant."""
    if observable.variant == CYLINDER:
        if not isinstance(point, ShiftPoint):
            raise VariantMismatch("cylinder observables require a shift point")
        word = point.word(observable.radius)
        return observable.table.get(word, observable.default)
    if not isinstance(point, TorusPoint):
        raise VariantMismatch("trig observables require a torus point")
    mod = 1 << point.precision_bits
    total = 0.0
    for freq, a, b in observable.terms:
        if len(freq) != len(point.coords):
            raise VariantMismatch("frequency dimension does not match the point")
        dot = sum(k * c for k, c in zip(freq, point.coords)) % mod
        phase = 2.0 * np.pi * (dot / mod)
        total += a * np.cos(phase) + b * np.sin(phase)
    return float(total)


def required_variant(system, observables=()) -> str:
    """The observable variant ``system`` takes, cylinder on a shift and
    trig on a torus; raises VariantMismatch if one of ``observables`` is
    of the other variant."""
    need = CYLINDER if isinstance(system, ShiftSystem) else TRIG
    if any(obs.variant != need for obs in observables):
        raise VariantMismatch(f"observables must all be {need} for this system")
    return need


def exact_mean(observable: Observable, system) -> float:
    """Exact invariant-measure mean of an observable.  On the torus that is
    the mean over the lattice 2^-q Z^d the lab samples: a character e(<k,
    x>) is 1 there when k = 0 mod 2^q, and averages to 0 otherwise."""
    if required_variant(system, (observable,)) == CYLINDER:
        total = observable.default
        for word, value in observable.table.items():
            total += system.word_probability(word) * (value - observable.default)
        return float(total)
    mean = 0.0
    for freq, a, _b in observable.terms:
        if all(k % system.modulus == 0 for k in freq):
            mean += a  # sin(2 pi n) = 0: only the cosine coefficient survives
    return float(mean)


def product_of_means(observables, system) -> float:
    """The product of the observables' exact means, in their order."""
    return float(np.prod([exact_mean(obs, system) for obs in observables]))


def cylinder_table_size(alphabet_size: int, radius: int) -> int:
    """Entries m^(2 radius + 1) of a cylinder factor's dense table; raises
    DomainError above ``STATE_LIMIT``."""
    width = 2 * radius + 1
    # m >= 2, so a width past the limit's bit length is over it.
    if width > STATE_LIMIT.bit_length() or alphabet_size ** width > STATE_LIMIT:
        raise DomainError(
            f"a radius-{radius} factor on {alphabet_size} letters has "
            f"{alphabet_size}^{width} words, more than the {STATE_LIMIT} a table holds"
        )
    return alphabet_size ** width


def cylinder_table(observable: Observable, alphabet_size: int) -> np.ndarray:
    """Dense values of a cylinder factor, indexed by the base-m code of its
    word, with ``cylinder_table_size`` entries.  A table word with a symbol
    outside the alphabet never occurs, so it is left out."""
    size = cylinder_table_size(alphabet_size, observable.radius)
    lookup = np.full(size, observable.default, dtype=np.float64)
    for word, value in observable.table.items():
        if all(0 <= s < alphabet_size for s in word):
            code = 0
            for s in word:
                code = code * alphabet_size + s
            lookup[code] = value
    return lookup


def factor_scratch(entries: int, symbol_dtype) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``cylinder_products``' ``values`` and ``scratch`` (word codes and
    gathered letters of ``symbol_dtype``) for products over ``entries``
    entries: min(``entries``, ``LANES``) each, so the factors of a wider
    block run a lane block at a time."""
    lanes = min(entries, LANES)
    return np.empty(lanes), (np.empty(lanes, dtype=np.intp), np.empty(lanes, dtype=symbol_dtype))


def cylinder_products(
    symbols: np.ndarray, factors, alphabet_size: int, out: np.ndarray, values: np.ndarray, scratch
) -> np.ndarray:
    """``out`` = the product over ``factors``, (columns, table) pairs of a
    factor's ``word_columns`` and ``cylinder_table``, of the factor values
    of ``symbols``, a sequence or a block of sequences.  ``values`` and
    ``scratch`` (word codes and gathered letters, ``factor_scratch``) are
    flat arrays of one size that hold a block's later-factor values and
    word codes, and they may hold fewer entries than ``out``.  The
    factors run over blocks that fit in them: as many whole sequences as
    fit, or else column blocks of one sequence; a factor with 0-d columns
    (one entry per sequence) reads one column.  Every product is
    elementwise, so each entry is the float one full-width pass gives.
    The first factor's values are written to ``out``: 1.0 times them is
    exact, so no array of ones is made."""
    if not out.size:  # no sequences or no entries: no block to cut
        return out
    rows = np.atleast_2d(symbols)
    dest = out.reshape(len(rows), -1)
    cut = min(dest.shape[1], values.size)
    step = values.size // cut
    factors = [(columns.reshape(len(columns), -1), table) for columns, table in factors]
    for a in range(0, len(rows), step):
        for c in range(0, dest.shape[1], cut):
            block = dest[a:a + step, c:c + cut]
            held, words, letters = (
                x[:block.size].reshape(block.shape) for x in (values, *scratch)
            )
            for i, (columns, table) in enumerate(factors):
                for j, cols in enumerate(columns[:, c:c + cut]):
                    # np.take writes into its ``out`` directly with
                    # mode="clip", where the default mode writes into a
                    # copy; every column and code here is in range.
                    np.take(rows[a:a + step], cols, axis=-1, out=letters, mode="clip")
                    if j:
                        words *= alphabet_size
                        words += letters
                    else:
                        words[...] = letters
                np.take(table, words, out=held if i else block, mode="clip")
                if i:
                    block *= held
    return out
