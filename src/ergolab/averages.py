"""Multiple ergodic averages along sequences and their rate statistics.

The streamed average is A_N = (1/N) sum_{n<=N} prod_i f_i(h^{m_i r_n} x)
with pairwise distinct nonzero multipliers m_i and a non-clustered
sequence r_n; S_N = N (A_N - target) is the centered sum.  The rate
statistic |A_N - target| / rho_{eps,delta}(N) operationalizes the
quantitative pointwise error scale, and ensembles of independent points
turn the almost-sure statement into fraction and median trends.

On a shift, every orbit's terms F_n come from one term generator: the
dyadic E(0, N) ensembles seed its rows with ``ROLE_TERMS``
(``product_term_generator``), and the average and rate-check points with
``ROLE_POINT`` (``orbit_series``).  A torus orbit is streamed from its
point (``ergodic_average_stream``).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ReadOnly, VariantMismatch
from .seeding import ROLE_POINT, ROLE_TERMS, Streams, rng_for
from .sequences import SequenceSpec, generate
from .systems import (
    LANES,
    SLAB_ITEMS,
    TORUS_SLAB,
    Observable,
    ShiftSystem,
    TorusAutomorphism,
    TorusPoint,
    _limb_count,
    _symbol_dtype,
    cylinder_table,
    cylinder_products,
    cylinder_table_size,
    evaluate,
    product_of_means,
    read_plan,
    required_variant,
    sample_rows,
    sample_torus_point,
    torus_limbs,
    torus_orbit,
    trig_values,
)


def rho(n: int, epsilon: float, delta: float) -> float:
    """Pointwise rate scale: N^(-1/2) log^(3/2+eps) N when delta > 1, and
    N^(-delta/2 + eps) when 0 < delta <= 1.  Natural logarithm."""
    if n < 2:
        raise DomainError("rate scale needs N >= 2")
    if epsilon <= 0 or delta <= 0:
        raise DomainError("epsilon and delta must be positive")
    if delta > 1:
        return n ** -0.5 * math.log(n) ** (1.5 + epsilon)
    return float(n) ** (-delta / 2.0 + epsilon)


class AverageSpec(ReadOnly):
    """System, per-factor observables and multipliers, sequence, horizon."""

    def __init__(
        self,
        system: ShiftSystem | TorusAutomorphism,
        observables: tuple[Observable, ...],
        multipliers: tuple[int, ...],
        sequence: SequenceSpec,
        n_max: int,
        checkpoints: tuple[int, ...] | None = None,
    ):
        vars(self).update(
            system=system, observables=tuple(observables),
            multipliers=tuple(int(m) for m in multipliers), sequence=sequence, n_max=n_max,
            checkpoints=checkpoints,
        )
        if not self.observables:
            raise DomainError("need at least one factor")
        if len(self.observables) != len(self.multipliers):
            raise DomainError("need one multiplier per observable")
        if any(m == 0 for m in self.multipliers):
            raise DomainError("multipliers must be nonzero")
        if len(set(self.multipliers)) != len(self.multipliers):
            raise DomainError("multipliers must be pairwise distinct")
        if self.n_max < 2:
            raise DomainError("need n_max >= 2")
        if self.checkpoints is not None:
            cps = tuple(int(c) for c in self.checkpoints)
            if not cps or cps[0] < 1 or cps[-1] < 2:
                raise DomainError("checkpoints must be >= 1, the last >= 2")
            if any(b <= a for a, b in zip(cps, cps[1:])) or cps[-1] > self.n_max:
                raise DomainError("checkpoints must strictly increase up to n_max")
            vars(self)["checkpoints"] = cps
        required_variant(self.system, self.observables)

    def checkpoint_schedule(self) -> tuple[int, ...]:
        """Dyadic checkpoints by default: powers of two up to n_max, plus n_max."""
        if self.checkpoints is not None:
            return self.checkpoints
        cps = set()
        p = 1
        while p <= self.n_max:
            cps.add(p)
            p *= 2
        cps.add(self.n_max)
        return tuple(sorted(cps))

    def target(self) -> float:
        return product_of_means(self.observables, self.system)

    @cached_property
    def terms(self) -> np.ndarray:
        """The sequence's first n_max terms, generated once per spec and
        shared, read-only, by its torus points."""
        terms = generate(self.sequence, self.n_max)
        terms.setflags(write=False)
        return terms

    @cached_property
    def _resolved(self) -> dict:
        return {}

    def resolve(self, ks) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The ``read_plan`` of a shift orbit at term indices ``ks``: factor
        i is read at m_i r_ks, so P(ks) is the union of m_i r + [-radius_i,
        radius_i] over factors i and r in r_ks, and each factor's columns
        are its ``word_columns`` in P(ks).  Worked out once per distinct ks
        and kept, read-only, so every later call with equal ks, and every
        point, shares it."""
        ks = np.asarray(ks, dtype=np.int64)
        key = ks.tobytes()
        if key not in self._resolved:
            terms = generate(self.sequence, int(ks.max()))[ks - 1]
            reach = max(abs(m) for m in self.multipliers) * int(terms.max())
            if reach + max(obs.radius for obs in self.observables) >= 1 << 62:
                raise DomainError("read positions m_i r_n exceed the int64 range")
            shifts = [m * terms for m in self.multipliers]  # factor i at m_i r_ks
            self._resolved[key] = read_plan(self.observables, shifts)
        return self._resolved[key]


class AverageSeries(NamedTuple):
    """Checkpoint rows (N, A_N, S_N) with S_N = N (A_N - target)."""

    entries: tuple[tuple[int, float, float], ...]
    target: float


def _factor_values_torus(
    spec: AverageSpec, point: TorusPoint, positions: np.ndarray
) -> np.ndarray:
    auto = spec.system
    exponents = sorted(set(positions.ravel().tolist()))
    index = np.searchsorted(np.array(exponents, dtype=np.int64), positions)
    orbit = torus_limbs(torus_orbit(auto, point, exponents), auto.precision_bits)
    values = np.ones(positions.shape[1], dtype=np.float64)
    for i, obs in enumerate(spec.observables):
        values *= trig_values(obs.terms, orbit[index[i]], auto.precision_bits)
    return values


def _checkpoint_series(spec: AverageSpec, values: np.ndarray) -> AverageSeries:
    """Checkpoint rows of the orbit whose terms F_1, F_2, ... are ``values``."""
    target = spec.target()
    sums = np.cumsum(values)
    entries = []
    for n in spec.checkpoint_schedule():
        a_n = float(sums[n - 1]) / n
        entries.append((int(n), a_n, float(sums[n - 1]) - n * target))
    return AverageSeries(entries=tuple(entries), target=target)


def ergodic_average_stream(spec: AverageSpec, point: TorusPoint) -> AverageSeries:
    """Stream F_n = prod_i f_i(h^{m_i r_n} x) of a torus point and emit
    checkpoint rows.

    The point's orbit is walked once over the sorted distinct exponents
    m_i r_n, and the trig factors are evaluated on all orbit points at
    once by exact limb arithmetic.  A shift orbit's terms come from the
    term generator instead (``orbit_series``).
    """
    if not isinstance(spec.system, TorusAutomorphism) or not isinstance(point, TorusPoint):
        raise VariantMismatch("streamed averages need a torus and a TorusPoint")
    positions = np.asarray(spec.multipliers, dtype=np.int64)[:, None] * spec.terms[None, :]
    return _checkpoint_series(spec, _factor_values_torus(spec, point, positions))


def direct_average(spec: AverageSpec, point, n: int) -> float:
    """Brute-force A_n by evaluating each factor pointwise (oracle for tests)."""
    from .systems import shift_apply, torus_apply_power

    terms = generate(spec.sequence, n)
    total = 0.0
    for idx in range(n):
        prod = 1.0
        for obs, mult in zip(spec.observables, spec.multipliers):
            shift = mult * int(terms[idx])
            if isinstance(spec.system, ShiftSystem):
                prod *= evaluate(obs, shift_apply(point, shift))
            else:
                prod *= evaluate(obs, torus_apply_power(spec.system, point, shift))
        total += prod
    return total / n


# ---------------------------------------------------------------------------
# Rate statistics
# ---------------------------------------------------------------------------

def rate_statistic(series: AverageSeries, epsilon: float, delta: float) -> tuple:
    """Rows (N, |A_N - target| / rho(N)): the average error normalized by
    the rate scale at every checkpoint with N >= 2."""
    rows = tuple(
        (n, abs(a_n - series.target) / rho(n, epsilon, delta))
        for n, a_n, _s_n in series.entries
        if n >= 2
    )
    if not rows:
        raise DomainError("series has no checkpoints with N >= 2")
    return rows


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def orbit_tasks(spec: AverageSpec, seed: int, point_count: int) -> list:
    """The ``orbit_series`` tasks of an ensemble's points 0..point_count-1.
    On a shift they share one ``ROLE_POINT`` term generator, so its
    scratch and the spec's resolution of k = 1..n_max serve every point a
    process runs."""
    rows = None
    if isinstance(spec.system, ShiftSystem):
        rows = _term_generator(spec, seed, ROLE_POINT)
    return [(spec, rows, seed, j) for j in range(point_count)]


def orbit_series(task) -> tuple[AverageSeries, int]:
    """One ensemble point's checkpoint series and the shift symbols its
    orbit drew (0 on a torus).  A shift point's terms F_1..F_{n_max} are
    its row of the ``ROLE_POINT`` term generator: the orbit of the point
    drawn by ``sample_at(system, P, 1, rng_for(seed, ROLE_POINT, j))`` at
    the positions P it reads.  A torus point is drawn from the same stream
    (``sample_torus_point``) and streamed."""
    spec, rows, seed, index = task
    if rows is None:
        point = sample_torus_point(spec.system, rng_for(seed, ROLE_POINT, index))
        return ergodic_average_stream(spec, point), 0
    ks = np.arange(1, spec.n_max + 1, dtype=np.int64)
    (slab,) = rows(index, ks)  # one point: one slab of one row
    return _checkpoint_series(spec, slab[0]), spec.resolve(ks)[0].size


def ensemble(
    spec: AverageSpec, point_count: int, epsilon: float, delta: float, seed: int, map_members=map
) -> tuple:
    """(series, rate tables, shift symbols drawn) of the independent orbits
    of points 0..point_count-1: each point's ``orbit_series`` and its
    ``rate_statistic``.  ``map_members(fn, tasks)`` is an ordered map over
    the points, such as the builtin ``map`` or a parallel one."""
    series, symbols = zip(*map_members(orbit_series, orbit_tasks(spec, seed, point_count)))
    return series, [rate_statistic(s, epsilon, delta) for s in series], sum(symbols)


def medians_of_columns(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)`` from one sort: the middle entry, or
    (a + b) / 2 of the two middle ones. It is bit for bit the same except
    for the sign of a zero median, as 0.0 and -0.0 tie. ``np.median``
    imports ``numpy.ma`` for its NaN check (about 10 ms per process); a
    column holding a NaN sorts it last and gets NaN here too."""
    ordered = np.sort(values, axis=0)
    mid = ordered.shape[0] // 2
    middle = ordered[mid] if ordered.shape[0] % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return np.where(np.isnan(ordered[-1]), np.nan, middle)


def rate_trends(tables, min_checkpoint: int | None = None) -> dict:
    """Fraction and median trends of an ensemble's rate tables over the
    checkpoints from ``min_checkpoint`` on, relative to the first one kept.

    Two exceedance curves are reported per checkpoint: the fraction of
    points whose statistic exceeds that same point's value at the
    reference checkpoint, and the fraction exceeding the ensemble median
    at the reference checkpoint.  The per-point curve is dominated by the
    heavy-tailed ratio of two nearly independent CLT fluctuations, so its
    floor is set by that ratio distribution rather than by the rate
    scale; the median-referenced curve tracks the shrinkage of the
    statistic's typical level.
    """
    if len(tables) < 10:
        raise DomainError("need at least 10 ensemble points")
    checkpoints = [n for n, _ in tables[0]]
    keep = [i for i, n in enumerate(checkpoints) if min_checkpoint is None or n >= min_checkpoint]
    if not keep:
        raise DomainError("min_checkpoint filters out every checkpoint")
    stats = np.asarray([[v for _, v in table] for table in tables], dtype=np.float64)[:, keep]
    medians = [float(m) for m in medians_of_columns(stats)]
    return {
        "checkpoints": [checkpoints[i] for i in keep],
        "reference_checkpoint": checkpoints[keep[0]],
        "fractions_above_own": [float(np.mean(column > stats[:, 0])) for column in stats.T],
        "fractions_above_median": [float(np.mean(column > medians[0])) for column in stats.T],
        "medians": medians,
        "point_count": len(tables),
    }


# ---------------------------------------------------------------------------
# Term generators: dyadic ensembles and ensemble points
# ---------------------------------------------------------------------------

def product_term_generator(spec: AverageSpec, master_seed: int):
    """Vectorized (point_indices, ks) -> term rows callback for dyadic ops.

    F[j, k] is the product of factors at shifts m_i r_k along point j's
    orbit.  A call samples each point only at the positions its factors
    read for the given ks, the positions P(ks) of ``spec.resolve(ks)``: row
    j is the factor products on ``sample_at(system, P(ks), 1,
    rng_for(master_seed, ROLE_TERMS, j))``, so it does not depend on which
    other points share the call or their order.  Calls with different ks
    sample different positions, so they do not agree on shared k.  Shift
    systems with cylinder factors only; use centered observables when the
    framework expects mean-zero terms.  The average and rate-check points
    take their rows from the same generator seeded with ``ROLE_POINT``
    (``orbit_series``): one path makes every shift orbit's terms.

    A call seeds the streams of all its points in one pass
    (``seeding.Streams``): each is the stream ``rng_for`` gives, and each
    is consumed, its row drawn, before the next is taken.  The read plan
    of ks, P(ks) and each factor's word columns in it, is worked out at
    the first call with those ks and reused by every later one; every slab
    reads its words through it.  The call returns an iterator over
    the rows of F in point order, in slabs of max(1, ``SLAB_ITEMS`` //
    len(ks)) rows, each made from start to finish when it is asked for:
    the slab's symbols (``sample_rows``), its factor values and its terms.
    The term slab and the factor scratch are arrays the generator keeps
    across calls and makes again only for a larger slab, so a slab holds
    its terms until the next is asked for, in this call or the next.  The
    factor scratch, word codes, gathered letters and later-factor values,
    holds at most ``LANES`` entries: ``cylinder_products`` runs the factors
    over lane blocks of the slab's rows, or column blocks of one row wider
    than ``LANES``.  The products are elementwise, so every entry is the
    float one full-width pass gives.  ``term_bytes`` bounds what a call
    holds, and its per-point figure sizes the point batches of
    ``dyadic.ensemble_moments``.
    """
    return _term_generator(spec, master_seed, ROLE_TERMS)


def _term_generator(spec: AverageSpec, master_seed: int, role: int):
    """``product_term_generator`` with row j seeded by ``rng_for(master_seed,
    role, j)``."""
    if not isinstance(spec.system, ShiftSystem):
        raise DomainError("term generators are implemented for shift systems")
    system = spec.system
    tables = [cylinder_table(obs, system.alphabet_size) for obs in spec.observables]

    scratch = []  # flat term, value, code and symbol buffers, kept across calls

    def slabs(positions: np.ndarray, factors: list, streams, step: int):
        width = factors[0][0].shape[1]
        for symbols in sample_rows(system, positions, streams, step):
            rows = symbols.shape[0]
            if not scratch or scratch[0].size < rows * width:
                # The first slab of a call is its largest: allocated after
                # it is sampled, scratch never meets a whole block of uniforms.
                # The factors run a lane block at a time (cylinder_products).
                lanes = min(rows * width, LANES)
                scratch[:] = [np.empty(rows * width), np.empty(lanes),
                              np.empty(lanes, dtype=np.intp), np.empty(lanes, dtype=symbols.dtype)]
            out, values, codes, gathered = scratch
            yield cylinder_products(
                symbols, factors, system.alphabet_size, out[: rows * width].reshape(rows, width),
                values, (codes, gathered),
            )

    def generator(point_indices: np.ndarray, ks: np.ndarray):
        points = np.ravel(point_indices)
        positions, columns = spec.resolve(ks)
        step = max(1, min(points.size, SLAB_ITEMS // np.size(ks)))
        streams = Streams(master_seed, (role,), points)
        return slabs(positions, list(zip(columns, tables)), streams, step)

    return generator


def term_bytes(spec: AverageSpec, width: int, positions: int | None = None) -> tuple[int, int]:
    """(bytes per point, bytes per call) bounding what a term generator call
    over ``width`` ks, and the dyadic reduction of its rows, hold when the
    call reads ``positions`` distinct positions; by default their bound
    sum_i (2 radius_i + 1) width.

    The per-point figure is an upper bound: one uniform and one symbol per
    position and ``width`` float64 terms.  On an i.i.d. chain a call holds
    symbols and terms only a row slab at a time; on any other chain it
    holds a uniform and a symbol per point and position, and terms a slab
    at a time.  But the figure also sizes the point batches of ``ergolab
    run dyadic`` (``dyadic.ensemble_moments``' ``row_bytes``), whose
    partition decides the pairwise merge, so it stays as it is.  A call
    also holds the sequence terms with their generation scratch (64 bytes
    a column covers the prime sieve and polynomial terms), the positions
    with their sort and gap scratch, the factor tables and the slab
    scratch, which ``64 * SLAB_ITEMS`` bounds.  The factor scratch takes
    one lane block (``LANES`` entries), not a slab, so both figures bound
    a call loosely; they stay as they are, as the per-point figure decides
    the point batches.  The read plan of the call's ks
    (``AverageSpec.resolve``) stays with the spec for later calls with the
    same ks, on both roles of the generator.  An average or rate-check
    point is one call of one point over k = 1..n_max, so the sum of the
    two figures bounds a shift orbit (``orbit_bytes``).  Not counted: the
    P^g that a non-i.i.d. chain caches per distinct gap
    (``transition_power``).
    """
    if positions is None:
        positions = sum(2 * obs.radius + 1 for obs in spec.observables) * width
    alphabet = spec.system.alphabet_size
    symbol = np.dtype(_symbol_dtype(alphabet)).itemsize
    tables = sum(cylinder_table_size(alphabet, obs.radius) for obs in spec.observables)
    per_point = 8 * width + (8 + symbol) * positions
    per_call = 64 * width + 40 * positions + 8 * tables + 64 * SLAB_ITEMS
    return per_point, per_call


def orbit_bytes(spec: AverageSpec, point_count: int) -> int:
    """``validate``'s ``estimated_memory_bytes`` for ``average`` and
    ``ratecheck``: the bytes one ``orbit_series`` task holds while it runs,
    plus what the run keeps of each of its ``point_count`` points until it
    ends.  A process runs its points one at a time.  A shift orbit is one
    term generator call (``term_bytes``).  A torus orbit holds, per exponent
    m_i r_n (len(m) n_max of them, repeats included), the exponent as an
    int64 and as a Python int with its list, set and index entries, and its
    orbit point as d Python ints of q bits in a tuple, as their bytes, as d
    ceil(q / 32) uint64 limbs and as one factor's gathered limbs; per point
    of a ``TORUS_SLAB`` slab, ``trig_values``' limbs of x and -x, dot
    product and phase scratch; and a fixed 32 KiB for the walk's power
    tables and the buffer artifacts are written through.  A kept point
    holds, per checkpoint, its row (N, A_N, S_N) as a tuple of an int and
    two floats, its rate row (N, statistic) and the three float64 copies
    of the statistic that ratecheck's trends make, 264 bytes; and 512
    bytes for its records and its slots in the run's lists."""
    checkpoints = len(spec.checkpoint_schedule())
    kept = point_count * (264 * checkpoints + 512)
    if isinstance(spec.system, ShiftSystem):
        ks = np.arange(1, spec.n_max + 1, dtype=np.int64)
        return kept + sum(term_bytes(spec, spec.n_max, spec.resolve(ks)[0].size))
    d, q = spec.system.dimension, spec.system.precision_bits
    limbs = _limb_count(q)
    per_exponent = 160 + d * (64 + q // 4 + 24 * limbs)
    per_slab_point = 8 * (2 * d * limbs + 8 * limbs + 24)
    exponents = len(spec.multipliers) * spec.n_max
    slab = min(spec.n_max, TORUS_SLAB) * per_slab_point
    return kept + exponents * per_exponent + slab + (32 << 10)
