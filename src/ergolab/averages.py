"""Multiple ergodic averages along sequences and their rate statistics.

The streamed average is A_N = (1/N) sum_{n<=N} prod_i f_i(h^{m_i r_n} x)
with pairwise distinct nonzero multipliers m_i and a non-clustered
sequence r_n; S_N = N (A_N - target) is the centered sum.  The rate
statistic |A_N - target| / rho_{eps,delta}(N) operationalizes the
quantitative pointwise error scale, and ensembles of independent points
turn the almost-sure statement into fraction and median trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, VariantMismatch
from .seeding import ROLE_POINT, ROLE_TERMS, Streams, rng_for
from .sequences import SequenceSpec, generate
from .systems import (
    SLAB_ITEMS,
    Observable,
    ShiftPoint,
    ShiftSystem,
    TorusAutomorphism,
    TorusPoint,
    _symbol_dtype,
    cylinder_table,
    cylinder_products,
    cylinder_table_size,
    evaluate,
    exact_mean,
    required_variant,
    sample_at,
    sample_rows,
    sample_torus_point,
    sorted_union,
    torus_limbs,
    torus_orbit,
    trig_values,
    word_columns,
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


@dataclass(frozen=True, eq=False)
class AverageSpec:
    """System, per-factor observables and multipliers, sequence, horizon."""

    system: ShiftSystem | TorusAutomorphism
    observables: tuple[Observable, ...]
    multipliers: tuple[int, ...]
    sequence: SequenceSpec
    n_max: int
    checkpoints: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "observables", tuple(self.observables))
        object.__setattr__(self, "multipliers", tuple(int(m) for m in self.multipliers))
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
            object.__setattr__(self, "checkpoints", cps)
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
        return float(np.prod([exact_mean(obs, self.system) for obs in self.observables]))

    def positions_read(self, terms: np.ndarray) -> np.ndarray:
        """Sorted distinct positions the factors read at sequence values
        ``terms``: the union of m_i r + [-radius_i, radius_i] over factors i
        and r in ``terms``."""
        reach = max(abs(m) for m in self.multipliers) * int(terms.max())
        if reach + max(obs.radius for obs in self.observables) >= 1 << 62:
            raise DomainError("read positions m_i r_n exceed the int64 range")
        return sorted_union(
            (m * terms)[:, None] + np.arange(-obs.radius, obs.radius + 1)
            for m, obs in zip(self.multipliers, self.observables)
        )

    @cached_property
    def terms(self) -> np.ndarray:
        """The sequence's first n_max terms, generated once per spec and
        shared, read-only, by its points."""
        terms = generate(self.sequence, self.n_max)
        terms.setflags(write=False)
        return terms

    @cached_property
    def read_positions(self) -> np.ndarray:
        """Positions a shift orbit reads up to n_max, worked out once per
        spec and shared, read-only, by its points."""
        positions = self.positions_read(self.terms)
        positions.setflags(write=False)
        return positions


@dataclass(frozen=True)
class AverageSeries:
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


def ergodic_average_stream(spec: AverageSpec, point) -> AverageSeries:
    """Stream F_n = prod_i f_i(h^{m_i r_n} x) and emit checkpoint rows.

    Cylinder factors on shifts are evaluated by vectorized table lookups
    over the whole orbit (``cylinder_products``).  On the torus the
    point's orbit is walked once over the sorted distinct exponents
    m_i r_n, and the trig factors are evaluated on all orbit points at
    once by exact limb arithmetic.
    """
    terms = spec.terms
    positions = np.asarray(spec.multipliers, dtype=np.int64)[:, None] * terms[None, :]
    if isinstance(spec.system, ShiftSystem):
        if not isinstance(point, ShiftPoint):
            raise VariantMismatch("shift averages need a ShiftPoint")
        m = spec.system.alphabet_size
        factors = [
            (word_columns(point.positions, obs.radius, at, point.offset), cylinder_table(obs, m))
            for obs, at in zip(spec.observables, positions)
        ]
        # One block: two separate arrays had glibc trim and re-fault the heap
        # top on every call (112 minor faults a call at n_max = 8192).
        values, later = np.empty((2, terms.size))
        scratch = np.empty(terms.size, dtype=np.intp), np.empty(terms.size, point.symbols.dtype)
        cylinder_products(point.symbols, factors, m, values, later, scratch)
    else:
        if not isinstance(point, TorusPoint):
            raise VariantMismatch("torus averages need a TorusPoint")
        values = _factor_values_torus(spec, point, positions)
    target = spec.target()
    sums = np.cumsum(values)
    entries = []
    for n in spec.checkpoint_schedule():
        a_n = float(sums[n - 1]) / n
        entries.append((int(n), a_n, float(sums[n - 1]) - n * target))
    return AverageSeries(entries=tuple(entries), target=target)


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

@dataclass(frozen=True)
class RateTable:
    """Per-checkpoint normalized errors |A_N - target| / rho(N)."""

    rows: tuple[tuple[int, float], ...]

    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.rows)


def rate_statistic(
    series: AverageSeries,
    epsilon: float,
    delta: float,
    target: float,
) -> RateTable:
    """Normalize the average error by the rate scale at every checkpoint
    with N >= 2."""
    rows = []
    for n, a_n, _s_n in series.entries:
        if n < 2:
            continue
        rows.append((n, abs(a_n - target) / rho(n, epsilon, delta)))
    if not rows:
        raise DomainError("series has no checkpoints with N >= 2")
    return RateTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Fraction and median trends of the rate statistic over an ensemble.

    Two exceedance curves are reported per checkpoint: the fraction of
    points whose statistic exceeds that same point's value at the
    reference checkpoint, and the fraction exceeding the ensemble median
    at the reference checkpoint.  The per-point curve is dominated by the
    heavy-tailed ratio of two nearly independent CLT fluctuations, so its
    floor is set by that ratio distribution rather than by the rate
    scale; the median-referenced curve tracks the shrinkage of the
    statistic's typical level.  ``symbols_sampled`` counts the shift
    symbols the ensemble's points drew (0 on a torus).
    """

    checkpoints: tuple[int, ...]
    reference_checkpoint: int
    fractions_above_own: tuple[float, ...]
    fractions_above_median: tuple[float, ...]
    medians: tuple[float, ...]
    point_count: int
    epsilon: float
    delta: float
    target: float
    statistics: np.ndarray
    symbols_sampled: int

    def to_json_dict(self) -> dict:
        return {
            "checkpoints": list(self.checkpoints),
            "reference_checkpoint": self.reference_checkpoint,
            "fractions_above_own": list(self.fractions_above_own),
            "fractions_above_median": list(self.fractions_above_median),
            "medians": list(self.medians),
            "point_count": self.point_count,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "target": self.target,
        }


def sample_spec_point(spec: AverageSpec, seed: int, point_index: int):
    """Deterministic per-point draw from the spec's invariant measure; a
    shift point is sampled only at the positions its orbit reads."""
    rng = rng_for(seed, ROLE_POINT, point_index)
    if isinstance(spec.system, ShiftSystem):
        positions = spec.read_positions
        symbols = sample_at(spec.system, positions, 1, rng)[0]
        return ShiftPoint(positions=positions, symbols=symbols)
    return sample_torus_point(spec.system, rng)


def ensemble_member_statistics(
    spec: AverageSpec, point, epsilon: float, delta: float
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Rate-statistic row of one ensemble member's orbit."""
    series = ergodic_average_stream(spec, point)
    table = rate_statistic(series, epsilon, delta, series.target)
    return tuple(n for n, _ in table.rows), table.values()


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


def _member(args) -> tuple[tuple[tuple[int, ...], tuple[float, ...]], int]:
    """One ensemble member's statistic row and the shift symbols its point drew."""
    spec, epsilon, delta, seed, index = args
    point = sample_spec_point(spec, seed, index)
    symbols = point.symbols.size if isinstance(point, ShiftPoint) else 0
    return ensemble_member_statistics(spec, point, epsilon, delta), symbols


def ensemble_rate_experiment(
    spec: AverageSpec,
    point_count: int,
    epsilon: float,
    delta: float,
    seed: int,
    min_checkpoint: int | None = None,
    map_members=map,
) -> EnsembleSummary:
    """Run independent orbits with per-point derived seeds and report the
    exceedance fractions and medians relative to the first checkpoint kept
    (from ``min_checkpoint`` on).  ``map_members(fn, tasks)`` is an ordered
    map over the members, such as the builtin ``map`` or a parallel one."""
    if point_count < 10:
        raise DomainError("need at least 10 ensemble points")
    tasks = [(spec, epsilon, delta, seed, j) for j in range(point_count)]
    results, symbols = zip(*map_members(_member, tasks))
    stats = np.asarray([values for _, values in results], dtype=np.float64)
    checkpoints = results[0][0]
    keep = [i for i, n in enumerate(checkpoints) if min_checkpoint is None or n >= min_checkpoint]
    if not keep:
        raise DomainError("min_checkpoint filters out every checkpoint")
    stats = stats[:, keep]
    kept = tuple(checkpoints[i] for i in keep)
    reference = stats[:, 0]
    medians = tuple(float(m) for m in medians_of_columns(stats))
    median_ref = medians[0]
    fractions_own = tuple(float(np.mean(stats[:, j] > reference)) for j in range(stats.shape[1]))
    fractions_med = tuple(float(np.mean(stats[:, j] > median_ref)) for j in range(stats.shape[1]))
    return EnsembleSummary(
        checkpoints=kept,
        reference_checkpoint=kept[0],
        fractions_above_own=fractions_own,
        fractions_above_median=fractions_med,
        medians=medians,
        point_count=stats.shape[0],
        epsilon=epsilon,
        delta=delta,
        target=spec.target(),
        statistics=stats,
        symbols_sampled=sum(symbols),
    )


# ---------------------------------------------------------------------------
# Term generators for the dyadic variance framework
# ---------------------------------------------------------------------------

def product_term_generator(spec: AverageSpec, master_seed: int):
    """Vectorized (point_indices, ks) -> term rows callback for dyadic ops.

    F[j, k] is the product of factors at shifts m_i r_k along point j's
    orbit.  A call samples each point only at the positions its factors
    read for the given ks, P(ks) = ``spec.positions_read(r_ks)``: row j is
    the factor products on ``sample_at(system, P(ks), 1, rng_for(master_seed,
    ROLE_TERMS, j))``, so it does not depend on which other points share
    the call or their order.  Calls with different ks sample different
    positions, so they do not agree on shared k.  Shift systems with
    cylinder factors only; use centered observables when the framework
    expects mean-zero terms.

    A call seeds the streams of all its points in one pass
    (``seeding.Streams``): each is the stream ``rng_for`` gives, and each
    is consumed, its row drawn, before the next is taken.  It resolves
    each factor's word columns in P(ks) once (``word_columns``); every
    slab reads its words through them.  The call returns an iterator over
    the rows of F in point order, in slabs of max(1, ``SLAB_ITEMS`` //
    len(ks)) rows, each made from start to finish when it is asked for:
    the slab's symbols (``sample_rows``), its factor values and its terms.
    The term slab, word codes and values are arrays the generator keeps
    across calls and makes again only for a larger slab, so a slab holds
    its terms until the next is asked for, in this call or the next.  The
    products are elementwise, so every entry is the float one full-width
    pass gives.  ``term_bytes`` bounds what a call holds.
    """
    if not isinstance(spec.system, ShiftSystem):
        raise DomainError("term generators are implemented for shift systems")
    system = spec.system
    multipliers = np.asarray(spec.multipliers, dtype=np.int64)
    tables = [cylinder_table(obs, system.alphabet_size) for obs in spec.observables]

    scratch = []  # flat term, value, code and symbol buffers, kept across calls

    def slabs(positions: np.ndarray, factors: list, streams, step: int):
        width = factors[0][0].shape[1]
        for symbols in sample_rows(system, positions, streams, step):
            rows = symbols.shape[0]
            if not scratch or scratch[0].size < rows * width:
                # The first slab of a call is its largest: allocated after
                # it is sampled, scratch never meets a whole block of uniforms.
                dtypes = (np.float64, np.float64, np.intp, symbols.dtype)
                scratch[:] = [np.empty(rows * width, dtype=dtype) for dtype in dtypes]
            out, values, codes, gathered = (a[: rows * width].reshape(rows, width) for a in scratch)
            yield cylinder_products(
                symbols, factors, system.alphabet_size, out, values, (codes, gathered)
            )

    def generator(point_indices: np.ndarray, ks: np.ndarray):
        ks = np.asarray(ks, dtype=np.int64)
        points = np.ravel(point_indices)
        terms = generate(spec.sequence, int(ks.max()))[ks - 1]
        positions = spec.positions_read(terms)
        factors = [
            (word_columns(positions, obs.radius, mult * terms), table)
            for obs, mult, table in zip(spec.observables, multipliers, tables)
        ]
        step = max(1, min(points.size, SLAB_ITEMS // ks.size))
        return slabs(positions, factors, Streams(master_seed, (ROLE_TERMS,), points), step)

    return generator


def term_bytes(spec: AverageSpec, width: int, positions: int | None = None) -> tuple[int, int]:
    """(bytes per point, bytes per call) bounding what a
    ``product_term_generator`` call over ``width`` ks, and the dyadic
    reduction of its rows, hold when the call reads ``positions`` distinct
    positions; by default their bound sum_i (2 radius_i + 1) width.

    The per-point figure is an upper bound: one uniform and one symbol per
    position and ``width`` float64 terms.  On an i.i.d. chain a call holds
    symbols and terms only a row slab at a time; on any other chain it
    holds a uniform and a symbol per point and position, and terms a slab
    at a time.  But the figure also sizes the point batches
    (``dyadic.point_batches``), whose partition decides the pairwise
    merge, so it stays as it is.  A call also holds the sequence terms
    with their generation scratch (64 bytes a column covers the prime
    sieve and polynomial terms), the positions with their sort and gap
    scratch, the factor tables and the slab scratch, which
    ``64 * SLAB_ITEMS`` bounds.
    Not counted: the P^g that a non-i.i.d. chain caches per distinct gap
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
