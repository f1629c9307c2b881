"""Multiple correlations: Monte Carlo, exact oracles, cumulants, rate fits.

The k-multiple correlation of observables f_0..f_k at pairwise distinct
times is the invariant-measure mean of the product of the shifted
observables; its deviation from the product of means is the mixing
defect.  Three evaluation routes are provided: Monte Carlo sampling, an
exact weighted transfer-matrix sum for cylinder observables on shifts,
and exact character matching for trig polynomials on toral automorphisms.
Joint cumulants are computed combinatorially through the set-partition
identity relating them to joint moments.
"""

from __future__ import annotations

import functools
import itertools
import math
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import intmat
from .errors import (
    DomainError,
    InsufficientData,
    KTooLarge,
    NotCylinder,
    NotTrig,
    ReadOnly,
    SubsetMissing,
    VariantMismatch,
)
from .seeding import MC_CHUNK, ROLE_MC, rng_for
from .systems import (
    SLAB_ITEMS,
    STATE_LIMIT,
    TORUS_SLAB,
    Observable,
    ShiftSystem,
    TorusAutomorphism,
    _symbol_dtype,
    cylinder_products,
    cylinder_table,
    cylinder_table_size,
    factor_scratch,
    product_of_means,
    read_plan,
    required_variant,
    sample_at,
    sample_torus_limbs,
    trig_values,
)

MAX_CUMULANT_ORDER = 10


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

class CorrelationQuery(ReadOnly):
    """System, observables f_0..f_k of the variant the system takes
    (``required_variant``) and pairwise distinct times n_0..n_k: factor i
    is evaluated at the effective time times[i].
    """

    def __init__(
        self,
        system: ShiftSystem | TorusAutomorphism,
        observables: tuple[Observable, ...],
        times: tuple[int, ...],
    ):
        vars(self).update(
            system=system, observables=tuple(observables), times=tuple(int(t) for t in times)
        )
        if not self.observables:
            raise DomainError("need at least one observable (k >= 0)")
        if len(self.observables) != len(self.times):
            raise DomainError("need one time per observable")
        eff = self.effective_times()
        if len(set(eff)) != len(eff):
            raise DomainError(f"effective times must be pairwise distinct, got {eff}")
        if any(abs(t) >= 1 << 62 for t in eff):
            raise DomainError(f"effective times must lie within +-2^62, got {eff}")
        required_variant(self.system, self.observables)

    def effective_times(self) -> tuple[int, ...]:
        return self.times

    @cached_property
    def plan(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The cylinder factors' ``read_plan`` at the effective times: the
        positions each sample draws and the oracle walks, and each factor's
        word columns in them."""
        return read_plan(self.observables, self.effective_times())

    @property
    def order(self) -> int:
        """k in a (k+1)-factor query."""
        return len(self.observables) - 1


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def _mc_products_shift(query: CorrelationQuery, chunk: int):
    """(count, rng) -> products of the cylinder factors over ``count`` <=
    ``chunk`` stationary sequences sampled only at the positions the
    factors read.

    Every array is allocated here once and reused by every call, so each
    call returns its products in the same array, and every call reads its
    words through the query's ``plan``.  The products take the uniforms'
    array once the symbols are drawn.  The factor scratch of word codes,
    gathered letters and values is ``factor_scratch``'s lane block, so
    ``cylinder_products`` evaluates the factors a lane block of sequences
    at a time in one call."""
    system, (positions, columns) = query.system, query.plan
    m = system.alphabet_size
    factors = [(cols, cylinder_table(obs, m)) for cols, obs in zip(columns, query.observables)]
    uniforms = np.empty(max(SLAB_ITEMS, chunk), dtype=np.float64)
    symbols = np.empty((chunk, positions.size), dtype=_symbol_dtype(m))
    values, scratch = factor_scratch(chunk, symbols.dtype)

    def kernel(count: int, rng: np.random.Generator) -> np.ndarray:
        sample_at(system, positions, count, rng, symbols[:count], uniforms)
        return cylinder_products(symbols[:count], factors, m, uniforms[:count], values, scratch)

    return kernel


def _transformed_terms(
    auto: TorusAutomorphism, obs: Observable, time: int
) -> list[tuple[tuple[int, ...], float, float]]:
    """Frequency vectors pushed through (matrix^T)^time mod 2^q, each entry
    the representative in (-2^(q-1), 2^(q-1)]: a character on the lattice
    2^-q Z^d depends on its frequency mod 2^q only, so the Monte Carlo
    kernel and the oracle give the same values at any time."""
    for freq, _a, _b in obs.terms:
        if len(freq) != auto.dimension:
            raise VariantMismatch(
                f"frequency {list(freq)} has {len(freq)} entries, "
                f"the torus dimension is {auto.dimension}"
            )
    mod = auto.modulus
    transpose = tuple(zip(*auto.matrix))
    if time >= 0:
        power = intmat.mat_pow(transpose, time, mod)
    else:
        power = intmat.mat_pow(intmat.mat_inverse_unimodular(transpose), -time, mod)
    out = []
    for freq, a, b in obs.terms:
        moved = tuple(x - mod if 2 * x > mod else x for x in intmat.mat_vec(power, freq, mod))
        out.append((moved, a, b))
    return out


def _mc_products_torus(
    query: CorrelationQuery, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Products of the factors at ``count`` uniform lattice points, by the
    limb kernel: factor i is its trig polynomial with frequencies pushed
    through time t_i, evaluated at the sampled points."""
    auto = query.system
    factors = [
        _transformed_terms(auto, obs, t)
        for obs, t in zip(query.observables, query.effective_times())
    ]
    prod = np.ones(count, dtype=np.float64)
    # Successive draws continue one stream, so slabs see the same points.
    for lo in range(0, count, TORUS_SLAB):
        points = sample_torus_limbs(auto, min(TORUS_SLAB, count - lo), rng)
        for terms in factors:
            prod[lo:lo + TORUS_SLAB] *= trig_values(terms, points, auto.precision_bits)
    return prod


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """Count, mean and sum of squared deviations of two parts together
    (Chan, Golub & LeVeque, 1979): no sum of squares is ever formed."""
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def _pairwise_moments(parts: Sequence[tuple]) -> tuple:
    """Merge per-chunk (count, mean, M2) parts in chunk order, adjacent pairs
    first, level by level; the result depends only on the parts' order."""
    parts = list(parts)
    while len(parts) > 1:
        merged = [_merge_moments(a, b) for a, b in zip(parts[::2], parts[1::2])]
        parts = merged + parts[len(merged) * 2:]
    return parts[0]


def mc_correlation(
    query: CorrelationQuery, samples: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of the product over ``samples`` draws.

    Sampling is chunked with one derived stream per fixed-size chunk; each
    chunk's mean and squared deviations are merged pairwise in chunk order,
    so the result is independent of how chunks are scheduled over workers
    and the variance has no sum-of-squares cancellation.  On a shift the
    chunk loop reuses arrays allocated once per call.
    """
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if isinstance(query.system, ShiftSystem):
        products = _mc_products_shift(query, min(MC_CHUNK, samples))
    else:
        products = functools.partial(_mc_products_torus, query)
    parts = []
    for chunk_index, lo in enumerate(range(0, samples, MC_CHUNK)):
        prod = products(min(MC_CHUNK, samples - lo), rng_for(seed, ROLE_MC, chunk_index))
        mean = float(prod.mean())
        # The squared deviations overwrite the products, which are done with.
        np.subtract(prod, mean, out=prod)
        np.square(prod, out=prod)
        parts.append((prod.size, mean, float(prod.sum())))
    _, estimate, m2 = _pairwise_moments(parts)
    return estimate, (m2 / (samples - 1) / samples) ** 0.5


# ---------------------------------------------------------------------------
# Exact transfer-matrix oracle on shifts
# ---------------------------------------------------------------------------

def exact_correlation_shift(query: CorrelationQuery) -> float:
    """Exact correlation by a weighted path sum over the read positions.

    Dynamic programming over symbol contexts of length K = max word
    length: read position by read position, the state distribution is
    advanced by the transition matrix and multiplied by each factor's
    value table at the position where its window completes.  No window
    is open across a gap g > 1 between read positions, so there the state
    keeps only its last symbol and advances by P^g in one step.
    """
    system = query.system
    if not isinstance(system, ShiftSystem):
        raise NotCylinder("exact shift oracle requires a ShiftSystem")
    m = system.alphabet_size
    widest = max(obs.radius for obs in query.observables)
    cylinder_table_size(m, widest)  # one state per word of the widest factor
    context = 2 * widest + 1

    # Each factor's window completes at the column of its last letter.
    positions, columns = query.plan
    completions: dict[int, list[Observable]] = {}
    for obs, cols in zip(query.observables, columns):
        completions.setdefault(int(cols[-1]), []).append(obs)

    positions = positions.tolist()
    vec = system.stationary
    length = 1
    for i, p in enumerate(positions):
        gap = p - positions[i - 1] if i else 0
        if gap > 1:
            # No window is open across the gap: keep only the last symbol.
            vec = vec.reshape(-1, m).sum(axis=0)
            length = 1
        if gap:
            step = system.transition_power(gap)
            last = np.arange(vec.size, dtype=np.int64) % m
            vec = (vec[:, None] * step[last, :]).ravel()
            if length == context:
                # Drop the oldest symbol once the context window is full.
                vec = vec.reshape(m, -1).sum(axis=0)
            else:
                length += 1
        for obs in completions.get(i, ()):
            width = 2 * obs.radius + 1
            lookup = cylinder_table(obs, m)
            codes = np.arange(vec.size, dtype=np.int64) % (m ** width)
            vec = vec * lookup[codes]
    return float(vec.sum())


# ---------------------------------------------------------------------------
# Exact character-matching oracle on the torus
# ---------------------------------------------------------------------------

def _exponential_terms(
    terms: list[tuple[tuple[int, ...], float, float]]
) -> list[tuple[tuple[int, ...], complex]]:
    """Split a real trig polynomial into complex exponential terms."""
    out = []
    for freq, a, b in terms:
        if all(k == 0 for k in freq):
            out.append((freq, complex(a)))  # sin(0) contributes nothing
        else:
            out.append((freq, complex(a, -b) / 2.0))
            out.append((tuple(-k for k in freq), complex(a, b) / 2.0))
    return out


def character_tuples(query: CorrelationQuery) -> int:
    """Tuples of exponential terms the exact torus oracle walks: the product
    over factors of 2 per trig term, 1 for a zero frequency.  Raises
    DomainError above ``STATE_LIMIT``, the bound the shift oracle's tables
    keep."""
    count = math.prod(
        sum(2 if any(freq) else 1 for freq, _a, _b in obs.terms) for obs in query.observables
    )
    if count > STATE_LIMIT:
        raise DomainError(
            f"the exact torus oracle would walk {count} character tuples, "
            f"more than the {STATE_LIMIT} it allows"
        )
    return count


def exact_correlation_torus(query: CorrelationQuery) -> float:
    """Exact correlation by matching pushed-forward character frequencies.

    The measure is the uniform one on the lattice 2^-q Z^d that every
    sample and orbit of the lab lies on.  A tuple of exponential terms
    contributes exactly when its transformed integer frequencies sum to 0
    mod 2^q; everything else averages to zero over the lattice by
    orthogonality of its characters.  Haar measure would keep only the
    sums equal to 0, which differs where a sum is a nonzero multiple of
    2^q.
    """
    auto = query.system
    if not isinstance(auto, TorusAutomorphism):
        raise NotTrig("exact torus oracle requires a TorusAutomorphism")
    character_tuples(query)
    factor_terms = [
        _exponential_terms(_transformed_terms(auto, obs, t))
        for obs, t in zip(query.observables, query.effective_times())
    ]
    d = auto.dimension
    total = 0.0 + 0.0j
    for combo in itertools.product(*factor_terms):
        freq_sum = [0] * d
        coeff = 1.0 + 0.0j
        for freq, c in combo:
            coeff *= c
            for i in range(d):
                freq_sum[i] += freq[i]
        if all(x % auto.modulus == 0 for x in freq_sum):
            total += coeff
    return float(total.real)


# ---------------------------------------------------------------------------
# Mixing defect
# ---------------------------------------------------------------------------

class Defect(NamedTuple):
    """|correlation - product of means| by the exact oracle."""

    value: float
    correlation: float
    product_of_means: float


def exact_correlation(query: CorrelationQuery) -> float:
    if isinstance(query.system, ShiftSystem):
        return exact_correlation_shift(query)
    return exact_correlation_torus(query)


def mixing_defect(query: CorrelationQuery) -> Defect:
    """Defect of the factorization into exact means, by the exact oracle."""
    product = product_of_means(query.observables, query.system)
    corr = exact_correlation(query)
    return Defect(value=abs(corr - product), correlation=corr, product_of_means=product)


# ---------------------------------------------------------------------------
# Rate fits
# ---------------------------------------------------------------------------

POLYNOMIAL_MODEL = "polynomial"
EXPONENTIAL_MODEL = "exponential"
DEGENERATE_MODEL = "degenerate"

RSS_TIE = 1e-9


class RateFit(NamedTuple):
    """Fitted decay (or growth) exponent with residuals, never hidden.

    polynomial model: data ~ amplitude * x^(-exponent) (sigma_fit stores a
    growth slope here instead, see its docstring).  exponential model:
    data ~ amplitude * exp(-exponent * x).  degenerate: every data point
    vanished exactly, amplitude 0 and no exponent.
    """

    model: str
    exponent: float | None
    amplitude: float
    rss: float
    data_range: tuple[float, float]
    n_points: int
    dropped_zeros: int = 0
    alternate: "RateFit | None" = None

    def to_json_dict(self) -> dict:
        out = {
            "model": self.model,
            "exponent": self.exponent,
            "amplitude": self.amplitude,
            "rss": self.rss,
            "data_range": list(self.data_range),
            "n_points": self.n_points,
            "dropped_zeros": self.dropped_zeros,
        }
        if self.alternate is not None:
            alt = self.alternate.to_json_dict()
            alt.pop("alternate", None)
            out["alternate"] = alt
        return out


def least_squares(columns: Sequence[np.ndarray], y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of y against the design ``columns``, in
    their order, and the residual sum of squares.

    Householder QR with back substitution (Golub & Van Loan, *Matrix
    Computations*, 4th ed., section 5.3), in numpy array operations: each
    reflector I - 2 v v^T / v^T v zeroes one column below the diagonal and
    is applied to y as it goes, then R coef = (Q^T y)[:n].  The lab's
    designs have at most a few hundred rows and 3 columns, which this
    solves in well under a millisecond.  LAPACK's solver (``lstsq``)
    faults in about 1 MB of its code on its first call, and that set the
    peak RSS of a dyadic run.  A non-finite entry of the design or of y,
    named by its index, and a design with dependent columns raise
    ``DomainError``."""
    design = np.vstack(columns).T.astype(np.float64)
    y = np.asarray(y, dtype=np.float64)
    for name, data in (("design", design), ("target", y)):
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            index = np.unravel_index(bad[0], data.shape)
            raise DomainError(f"non-finite {name} entry at index {list(map(int, index))}")
    rows, n = design.shape
    r, qty = design.copy(), y.copy()
    for k in range(n):
        v = r[k:, k].copy()
        # Adding the sign of v[0] keeps v[0] free of cancellation.
        v[0] += np.copysign(np.sqrt(v @ v), v[0])
        vv = v @ v
        if vv > 0.0:
            r[k:, k:] -= np.outer(v, v @ r[k:, k:]) * (2.0 / vv)
            qty[k:] -= v * (2.0 * (v @ qty[k:]) / vv)
    diag = np.abs(np.diagonal(r))
    if diag.min() <= np.finfo(np.float64).eps * rows * diag.max():
        raise DomainError("design columns are linearly dependent")
    coef = np.zeros(n)
    for k in reversed(range(n)):
        coef[k] = (qty[k] - r[k, k + 1 :] @ coef[k + 1 :]) / r[k, k]
    resid = y - design @ coef
    return coef, float(resid @ resid)


def fit_model(xs: np.ndarray, ys: np.ndarray, model: str, dropped: int = 0) -> RateFit:
    """Fit log ys = log amplitude - exponent * (log xs or xs) for the
    polynomial or the exponential model."""
    predictor = np.log(xs) if model == POLYNOMIAL_MODEL else xs
    coef, rss = least_squares([predictor, np.ones_like(predictor)], np.log(ys))
    return RateFit(
        model=model,
        exponent=float(-coef[0]),
        amplitude=float(np.exp(coef[1])),
        rss=rss,
        data_range=(float(xs.min()), float(xs.max())),
        n_points=int(xs.size),
        dropped_zeros=dropped,
    )


def _fit_nonzero(xs: np.ndarray, ys: np.ndarray, fit) -> RateFit:
    """``fit(xs, ys, dropped)`` on the points whose ys is not an exact zero,
    with ``dropped`` the count of those that are (log of an exact zero is
    the honest failure mode of exact cancellation, not noise).  Fewer than
    2 distinct xs left give the degenerate fit: amplitude 0 and no exponent
    over the range of all ``xs``.  A NaN or infinite ys is kept, and the
    fit refuses it."""
    keep = ys != 0.0
    dropped = int((~keep).sum())
    kept = xs[keep]
    # min == max, not np.unique, which faults in about 1.6 MB of code.
    if kept.size < 2 or kept.min() == kept.max():
        return RateFit(
            model=DEGENERATE_MODEL,
            exponent=None,
            amplitude=0.0,
            rss=0.0,
            data_range=(float(xs.min()), float(xs.max())) if xs.size else (0.0, 0.0),
            n_points=int(xs.size),
            dropped_zeros=dropped,
        )
    return fit(xs[keep], ys[keep], dropped=dropped)


def _better_decay_fit(xs: np.ndarray, ys: np.ndarray, dropped: int) -> RateFit:
    """The decay model with the smaller residual; ties within 1e-9 attach
    the other fit.  The polynomial model takes log x, so an x <= 0 leaves
    the exponential model alone."""
    expo = fit_model(xs, ys, EXPONENTIAL_MODEL, dropped)
    if xs.min() <= 0.0:
        return expo
    poly = fit_model(xs, ys, POLYNOMIAL_MODEL, dropped)
    if abs(poly.rss - expo.rss) <= RSS_TIE * max(1.0, poly.rss, expo.rss):
        best, other = (expo, poly) if expo.rss <= poly.rss else (poly, expo)
        return best._replace(alternate=other)
    return expo if expo.rss < poly.rss else poly


def fit_decay(xs: Sequence[float], ys: Sequence[float]) -> RateFit:
    """Fit |data| against both decay models on log scale and keep the one
    with the smaller residual; zero data points are dropped and counted."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.abs(np.asarray(ys, dtype=np.float64))
    if xs.size != ys.size or xs.size == 0:
        raise DomainError("need matching nonempty x and y data")
    return _fit_nonzero(xs, ys, _better_decay_fit)


def min_gap_decay_check(
    system,
    observables: Sequence[Observable],
    time_tuples: Sequence[Sequence[int]],
) -> RateFit:
    """Fit the mixing defect against the minimal pairwise time gap.

    Tuples must come with strictly increasing min-gap values so the fit
    spans a genuine range of scales.
    """
    if len(time_tuples) < 4:
        raise InsufficientData("need at least 4 time tuples")
    gaps = []
    defects = []
    for times in time_tuples:
        query = CorrelationQuery(system=system, observables=tuple(observables), times=tuple(times))
        eff = query.effective_times()
        gap = min(
            abs(a - b) for a, b in itertools.combinations(eff, 2)
        ) if len(eff) > 1 else min(abs(t) for t in eff)
        gaps.append(gap)
        defects.append(mixing_defect(query).value)
    if any(b <= a for a, b in zip(gaps, gaps[1:])):
        raise DomainError(f"min-gap values must be strictly increasing, got {gaps}")
    return fit_decay(gaps, defects)


# ---------------------------------------------------------------------------
# Joint cumulants via set partitions
# ---------------------------------------------------------------------------

def set_partitions(items: Iterable[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of a finite set, by restricted-growth enumeration."""
    items = list(items)

    def rec(i: int, blocks: list[list[int]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        x = items[i]
        for block in blocks:
            block.append(x)
            yield from rec(i + 1, blocks)
            block.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    if not items:
        yield ()
        return
    yield from rec(0, [])


@functools.cache
def _subset_partitions(order: int) -> dict:
    """For every nonempty subset of {0..order}, in size order, its set
    partitions with blocks as frozensets, the whole subset first.
    Enumerated once per order and reused; the total count is a Bell
    number, small for the guarded orders."""
    table = {}
    indices = list(range(order + 1))
    for size in range(1, order + 2):
        for combo in itertools.combinations(indices, size):
            table[frozenset(combo)] = tuple(
                tuple(frozenset(block) for block in partition)
                for partition in set_partitions(combo)
            )
    return table


def _normalize_table(table: Mapping) -> tuple[dict[frozenset, float], int]:
    data = {}
    for key, value in table.items():
        subset = frozenset(int(i) for i in (key if not isinstance(key, int) else (key,)))
        if not subset:
            raise DomainError("subset keys must be nonempty")
        data[subset] = float(value)
    ground = sorted(set().union(*data.keys()))
    order = max(ground)
    if set(ground) != set(range(order + 1)):
        raise SubsetMissing(f"ground set must be 0..{order}, got {ground}")
    if order > MAX_CUMULANT_ORDER:
        raise KTooLarge(f"order {order} exceeds the guard {MAX_CUMULANT_ORDER}")
    indices = list(range(order + 1))
    for size in range(1, order + 2):
        for combo in itertools.combinations(indices, size):
            if frozenset(combo) not in data:
                raise SubsetMissing(f"missing value for subset {combo}")
    return data, order


class CumulantTable(NamedTuple):
    """Joint moments and cumulants for every nonempty subset of {0..order}.

    The two tables satisfy the partition identity: each moment equals the
    sum over set partitions of the products of block cumulants.
    """

    order: int
    moments: dict
    cumulants: dict

    def moment(self, subset) -> float:
        return self.moments[frozenset(subset)]

    def cumulant(self, subset) -> float:
        return self.cumulants[frozenset(subset)]

    def full_cumulant(self) -> float:
        return self.cumulants[frozenset(range(self.order + 1))]


def _partition_sum(table: dict, order: int, inverse: bool) -> dict:
    """The partition identity over every subset of {0..order}, smallest
    first: the sum, over the subset's set partitions, of the products of
    block values.  Forward, ``table`` holds cumulants and the sums are the
    moments.  Inverse, ``table`` holds moments, each subset skips its first
    partition (the whole subset) and its cumulant is its moment less the
    sum over the cumulants found so far."""
    out: dict[frozenset, float] = {}
    blocks = out if inverse else table
    for subset, partitions in _subset_partitions(order).items():
        total = 0.0
        for partition in partitions[1:] if inverse else partitions:
            prod = 1.0
            for block in partition:
                prod *= blocks[block]
            total += prod
        out[subset] = table[subset] - total if inverse else total
    return out


def moments_to_cumulants(moments: Mapping) -> CumulantTable:
    """Invert the partition identity by recursion over subset sizes."""
    table, order = _normalize_table(moments)
    return CumulantTable(order=order, moments=table, cumulants=_partition_sum(table, order, True))


def cumulants_to_moments(cumulants: Mapping) -> dict:
    """Moments as sums over set partitions of products of block cumulants."""
    return _partition_sum(*_normalize_table(cumulants), False)


def joint_moment_table(
    system,
    observables: Sequence[Observable],
    times: Sequence[int],
) -> dict:
    """Exact joint moments of f_i(h^{t_i} x) for every nonempty index subset."""
    observables = tuple(observables)
    times = tuple(int(t) for t in times)
    indices = range(len(observables))
    table = {}
    for size in range(1, len(observables) + 1):
        for combo in itertools.combinations(indices, size):
            query = CorrelationQuery(
                system=system,
                observables=tuple(observables[i] for i in combo),
                times=tuple(times[i] for i in combo),
            )
            table[frozenset(combo)] = exact_correlation(query)
    return table


def joint_cumulants(
    system,
    observables: Sequence[Observable],
    times: Sequence[int],
) -> CumulantTable:
    return moments_to_cumulants(joint_moment_table(system, observables, times))


def cumulant_decay_scan(
    system,
    observables: Sequence[Observable],
    time_tuples: Sequence[Sequence[int]],
) -> tuple[RateFit, list[dict]]:
    """Exact top cumulants over a grid of time tuples, fitted exponentially
    against the largest recentred time offset max_i |t_i - t_0|."""
    rows = []
    xs = []
    ys = []
    for times in time_tuples:
        table = joint_cumulants(system, observables, times)
        kappa = table.full_cumulant()
        x = max(abs(t - times[0]) for t in times)
        rows.append(
            {
                "times": tuple(int(t) for t in times),
                "x": x,
                "moment": table.moment(range(len(times))),
                "cumulant": kappa,
            }
        )
        xs.append(x)
        ys.append(abs(kappa))
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    return _fit_nonzero(xs, ys, functools.partial(fit_model, model=EXPONENTIAL_MODEL)), rows
