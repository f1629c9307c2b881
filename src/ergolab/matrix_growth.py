"""Norm growth of matrix powers and commuting pairs.

Classifies growth profiles (exponential base from the spectral radius,
polynomial degree from Jordan structure), verifies the linear lower bound
of unit-modulus Jordan blocks, and converts commuting-pair norm growth
into the counting conditions through the sequences-module checkers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import intmat
from .correlations import least_squares
from .errors import (
    DomainError,
    FitInconsistent,
    HypothesisFailed,
    Indeterminate,
    Singular,
)
from .sequences import CountingReport, check_b_either

UNIT_TOLERANCE = 1e-9
COMMUTATOR_TOLERANCE = 1e-10


def _as_matrix(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError("need a square matrix")
    return arr


def spectral_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix, 2))


@dataclass(frozen=True, eq=False)
class CommutingPair:
    """Two commuting invertible matrices of the same dimension."""

    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        g = _as_matrix(self.g)
        h = _as_matrix(self.h)
        if g.shape != h.shape:
            raise DomainError("matrices must share a dimension")
        with np.errstate(over="ignore", invalid="ignore"):
            commutator = np.abs(g @ h - h @ g)
        # NaN fails the comparison, so a NaN entry does not commute either.
        if not np.all(commutator <= COMMUTATOR_TOLERANCE):
            raise DomainError("matrices do not commute within 1e-10")
        for name, mat in (("g", g), ("h", h)):
            if abs(np.linalg.det(mat)) < 1e-12:
                raise Singular(f"matrix {name} is singular")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    @property
    def dimension(self) -> int:
        return self.g.shape[0]


def is_quasi_unipotent(matrix, tol: float = UNIT_TOLERANCE, exact: bool = False) -> bool:
    """True iff every eigenvalue modulus lies in [1 - tol, 1 + tol].

    The exact mode requires integer entries and tests whether the
    characteristic polynomial is a product of cyclotomic polynomials
    (Kronecker's criterion), with no floating tolerance at all.  In the
    numeric mode a modulus that sits inside the tolerance band but is not
    machine-close to 1 cannot be classified: integer matrices fall back
    to the exact test, anything else raises Indeterminate.
    """
    arr = _as_matrix(matrix)
    rounded = np.rint(arr)
    integral = np.max(np.abs(arr - rounded)) == 0
    if exact:
        if not integral:
            raise DomainError("exact mode requires integer entries")
        im = intmat.as_int_matrix(rounded.astype(np.int64).tolist())
        poly = intmat.char_poly(im)
        if poly[0] == 0:
            raise Singular("integer matrix has determinant 0")
        return intmat.is_cyclotomic_product(poly)
    if abs(np.linalg.det(arr)) < 1e-12:
        raise Singular("matrix is singular")
    distances = np.abs(np.abs(np.linalg.eigvals(arr)) - 1.0)
    confident = max(1e-12, tol * 1e-3)
    if np.any((distances > confident) & (distances <= tol)):
        if integral:
            return is_quasi_unipotent(arr, tol=tol, exact=True)
        raise Indeterminate(
            "an eigenvalue modulus falls inside the tolerance band without "
            "being machine-close to 1; cannot classify at this tolerance"
        )
    return bool(np.all(distances <= tol))


class NormPower(NamedTuple):
    value: float
    log: float

    @classmethod
    def from_log(cls, log: float) -> "NormPower":
        """The norm e^log, inf where it would overflow."""
        return cls(math.exp(log) if log < 709.0 else math.inf, log)


def norm_power(matrix, n: int) -> NormPower:
    """Spectral norm of matrix^n by scaled square-and-multiply.

    The running norm is factored out after every product, so only the log
    accumulates; the value overflows to inf gracefully while the log form
    stays finite.
    """
    if n < 0:
        raise DomainError("need n >= 0")
    arr = _as_matrix(matrix)
    if n == 0:
        return NormPower(1.0, 0.0)
    if spectral_norm(arr) == 0.0:
        return NormPower(0.0, -math.inf)
    return NormPower.from_log(_scaled_power(arr, n)[1])


def jordan_block_growth(s: complex, n: int) -> float:
    """Norm of the n-th power of the 2x2 Jordan block with unimodular s.

    Unimodular scaling drops out, leaving the shear [[1, n], [0, 1]] whose
    norm is (n + sqrt(n^2 + 4)) / 2 >= n.
    """
    if n < 0:
        raise DomainError("need n >= 0")
    if abs(abs(complex(s)) - 1.0) > 1e-12:
        raise DomainError(f"|s| = {abs(complex(s))} is not 1 within 1e-12")
    return (n + math.sqrt(n * n + 4.0)) / 2.0


# ---------------------------------------------------------------------------
# Growth classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthProfile:
    """Exponential base and polynomial degree of ||M^n||, with fit residual.

    base 1 marks quasi-unipotent-driven polynomial growth; base > 1 marks
    eventual exponential domination.
    """

    base: float
    poly_degree: int
    residual: float
    norms: tuple[NormPower, ...]  # ||M^n|| for n = 1..n_max


def _max_jordan_block(arr: np.ndarray, modulus: float) -> int:
    """Largest Jordan block size over eigenvalues of maximal modulus,
    from rank deficiencies of (M - lambda I)^j."""
    d = arr.shape[0]
    eigenvalues = np.linalg.eigvals(arr)
    top = [lam for lam in eigenvalues if abs(abs(lam) - modulus) <= 1e-6 * max(modulus, 1.0)]
    # Deduplicate close eigenvalues to avoid recomputing identical chains.
    reps: list[complex] = []
    for lam in top:
        if all(abs(lam - r) > 1e-6 for r in reps):
            reps.append(lam)
    largest = 1
    for lam in reps:
        shifted = arr - lam * np.eye(d)
        prev_rank = d
        power = np.eye(d, dtype=complex)
        for j in range(1, d + 1):
            power = power @ shifted
            rank = int(np.linalg.matrix_rank(power, tol=1e-9 * max(1.0, spectral_norm(arr)) ** j))
            if rank == prev_rank:
                largest = max(largest, j - 1 if j > 1 else 1)
                break
            prev_rank = rank
        else:
            largest = max(largest, d)
    return largest


def growth_radius(matrix) -> float:
    """Spectral radius of a matrix with finite entries; a radius below 1,
    or an infinite radius or spectral norm, raises."""
    arr = _as_matrix(matrix)
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    radius = float(np.max(np.abs(np.linalg.eigvals(arr))))
    if not (math.isfinite(radius) and math.isfinite(spectral_norm(arr))):
        raise DomainError("spectral radius and norm must be finite")
    if radius < 1.0 - UNIT_TOLERANCE:
        raise DomainError(f"spectral radius {radius:.6g} below 1: not a growth setting")
    return radius


def growth_profile(matrix, n_max: int = 64) -> GrowthProfile:
    """Fit log ||M^n|| = a n + p log n + c and cross-check both parameters.

    The base e^a must agree with the spectral radius within 1%, and the
    rounded degree p with the largest Jordan block on the top eigenvalue
    shell; disagreement raises rather than guessing.
    """
    if n_max < 16:
        raise DomainError("need n_max >= 16")
    arr = _as_matrix(matrix)
    radius = growth_radius(arr)
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    logs = _running_logs(np.eye(arr.shape[0])[None], np.zeros(1), arr, n_max)[0]
    norms = tuple(NormPower.from_log(log) for log in logs.tolist())
    coef, rss = least_squares([ns, np.log(ns), np.ones_like(ns)], logs)
    base = float(math.exp(coef[0]))
    degree = int(round(coef[1]))
    if abs(base - radius) > 0.01 * max(radius, 1.0):
        raise FitInconsistent(
            f"fitted base {base:.6g} disagrees with spectral radius {radius:.6g}"
        )
    expected_degree = _max_jordan_block(arr, radius) - 1
    if degree != expected_degree:
        raise FitInconsistent(
            f"fitted degree {degree} disagrees with Jordan structure {expected_degree}"
        )
    return GrowthProfile(base=base, poly_degree=degree, residual=rss, norms=norms)


# ---------------------------------------------------------------------------
# Commuting pairs: counting conditions and the hyperbolic balance bound
# ---------------------------------------------------------------------------

def _scaled_power(matrix: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """matrix^n as (unit-norm matrix, log norm)."""
    d = matrix.shape[0]
    result = np.eye(d)
    log_norm = 0.0
    base = matrix.copy()
    scale = spectral_norm(base)
    log_base = math.log(scale)
    base = base / scale
    remaining = n
    while remaining:
        if remaining & 1:
            result = result @ base
            s = spectral_norm(result)
            log_norm += log_base + math.log(s)
            result = result / s
        remaining >>= 1
        if remaining:
            base = base @ base
            s = spectral_norm(base)
            log_base = 2.0 * log_base + math.log(s)
            base = base / s
    return result, log_norm


def _running_logs(acc: np.ndarray, log_starts, step: np.ndarray, count: int) -> np.ndarray:
    """log ||S_i step^n|| for n = 1..count as a (rows, count) array, from the
    stack ``acc`` of unit-norm S_i / ||S_i|| and the log ||S_i|| in
    ``log_starts``: one running product per row, divided by its norm after
    every step.  The batched matmul and svd give each matrix the bits of the
    one-matrix calls and each log is a ``math.log``, so every cell is the
    float a scalar loop gives."""
    step_norm = spectral_norm(step)
    step_unit = step / step_norm
    log_step = math.log(step_norm)
    log_acc = np.array(log_starts, dtype=np.float64)
    out = np.empty((len(acc), count), dtype=np.float64)
    for n in range(count):
        acc = acc @ step_unit
        s = np.linalg.svd(acc, compute_uv=False)[:, 0]
        log_acc += log_step + np.array([math.log(v) for v in s.tolist()])
        acc = acc / s[:, None, None]
        out[:, n] = log_acc
    return out


def pair_norm_grid(
    pair: CommutingPair, outer_exponents: Sequence[int], inner_max: int, order: str
) -> np.ndarray:
    """log ||h^m g^n|| over a grid: order 'hg' fixes the h exponent per row
    and sweeps g powers along columns, order 'gh' the converse."""
    if order not in ("hg", "gh"):
        raise DomainError("order must be 'hg' or 'gh'")
    if any(m < 0 for m in outer_exponents):
        raise DomainError("grid exponents must be nonnegative")
    first, second = (pair.h, pair.g) if order == "hg" else (pair.g, pair.h)
    starts = [_scaled_power(first, int(m)) for m in outer_exponents]
    units = np.array([a for a, _ in starts]).reshape(len(starts), *first.shape)
    return _running_logs(units, [log_norm for _, log_norm in starts], second, inner_max)


@dataclass(frozen=True)
class PairCountingResult:
    """Which orientation of the two-argument counting condition passed."""

    decisive: CountingReport
    other: CountingReport | None
    orientation: str | None  # "row", "column", or None when both failed


def pair_counting_check(
    pair: CommutingPair,
    m_grid: Sequence[int],
    k_max: int,
    n_max: int,
) -> PairCountingResult:
    """Build b(m, n) = ||h^m g^n|| and run the counting checkers, row
    orientation first with a column fallback."""
    m_grid = [int(m) for m in m_grid]

    def norms(order: str) -> np.ndarray:
        # Round-off just below 1 is lifted to 1; the checker rejects the rest.
        with np.errstate(over="ignore"):
            values = np.exp(pair_norm_grid(pair, m_grid, k_max, order))
        return np.where(values >= 1.0 - 1e-9, np.maximum(values, 1.0), values)

    # Row i of the gh grid, built only if the row orientation fails, fixes g^m_grid[i].
    decisive, other = check_b_either(map(norms, ("hg", "gh")), m_grid, n_max)
    orientation = decisive.condition.removeprefix("b-") if decisive.passed else None
    return PairCountingResult(decisive=decisive, other=other, orientation=orientation)


@dataclass(frozen=True, eq=False)
class BalanceBound:
    """Two-eigenvalue lower-bound curve for ||h^m g^n|| at fixed m."""

    m: int
    threshold: int          # first g-power index where expansion takes over
    ns: tuple[int, ...]
    curve: np.ndarray       # 0.5 (|s+^n t+^m| + |s-^n t-^m|)
    norms: np.ndarray       # ||h^m g^n||
    passed: bool


def _simultaneous_eigenpairs(pair: CommutingPair) -> list[tuple[complex, complex]]:
    """(eigenvalue of g, eigenvalue of h) on shared eigenvectors."""
    values, vectors = np.linalg.eig(pair.g)
    pairs = []
    for j in range(values.size):
        v = vectors[:, j]
        hv = pair.h @ v
        pivot = int(np.argmax(np.abs(v)))
        t = complex(hv[pivot] / v[pivot])
        residual = float(np.linalg.norm(hv - t * v))
        if residual > 1e-8 * max(1.0, spectral_norm(pair.h)):
            raise HypothesisFailed(
                "matrices are not simultaneously diagonalizable on the "
                "relevant eigenspaces at working precision"
            )
        pairs.append((complex(values[j]), t))
    return pairs


def hyperbolic_balance_bound(
    pair: CommutingPair, m: int, n_range: Sequence[int]
) -> BalanceBound:
    """Verify ||h^m g^n|| against the balanced two-eigenvalue lower bound.

    Requires strictly hyperbolic simultaneous spectra with the
    expanded-by-g <=> contracted-by-h pairing; violations raise
    HypothesisFailed (the simultaneous-eigenvector case applies there
    instead and is reported, not computed).
    """
    if m < 0:
        raise DomainError("need m >= 0")
    ns = [int(n) for n in n_range]
    if not ns or any(n < 0 for n in ns):
        raise DomainError("n_range must be nonempty and nonnegative")
    eigenpairs = _simultaneous_eigenpairs(pair)
    for s, t in eigenpairs:
        if abs(abs(s) - 1.0) <= UNIT_TOLERANCE or abs(abs(t) - 1.0) <= UNIT_TOLERANCE:
            raise Indeterminate(
                "an eigenvalue modulus is within 1e-9 of 1; the hyperbolic "
                "balance bound needs strict hyperbolicity"
            )
        if (abs(s) > 1.0) == (abs(t) > 1.0):
            raise HypothesisFailed(
                "a simultaneous eigenvector is expanded (or contracted) by "
                "both matrices; the simultaneous-eigenvector branch applies"
            )
    plus = [(s, t) for s, t in eigenpairs if abs(s) > 1.0]
    minus = [(s, t) for s, t in eigenpairs if abs(s) < 1.0]
    if not plus or not minus:
        raise HypothesisFailed("need eigenvalues on both sides of the unit circle")

    # Threshold index: largest k with |s^n t^m| < 1 for all n < k, s expanded.
    if m == 0:
        threshold = 0
    else:
        bound = min(m * math.log(1.0 / abs(t)) / math.log(abs(s)) for s, t in plus)
        threshold = max(0, math.ceil(bound - 1e-12))

    def weight(st: tuple[complex, complex], n_power: int) -> float:
        s, t = st
        return abs(s) ** n_power * abs(t) ** m

    s_plus, t_plus = max(plus, key=lambda st: weight(st, max(threshold, 1)))
    s_minus, t_minus = max(minus, key=lambda st: weight(st, max(threshold - 1, 0)))
    if m > 0 and weight((s_minus, t_minus), threshold - 1) <= 1.0 - 1e-9:
        raise HypothesisFailed(
            "no contracted eigenvalue balances the threshold; for matrices "
            "away from determinant one the bound rescales by |det| factors"
        )
    ns_arr = np.asarray(ns, dtype=np.int64)
    curve = 0.5 * (
        np.abs(s_plus) ** ns_arr * abs(t_plus) ** m
        + np.abs(s_minus) ** ns_arr * abs(t_minus) ** m
    )
    h_part, log_h = _scaled_power(pair.h, m)
    # logs[n] = log ||h^m g^n||, from one running product.
    logs = np.concatenate(([log_h], _running_logs(h_part[None], [log_h], pair.g, max(ns))[0]))
    with np.errstate(over="ignore"):
        norms = np.exp(logs[ns_arr])
    passed = bool(np.all(norms >= curve * (1.0 - 1e-9)))
    return BalanceBound(
        m=m,
        threshold=threshold,
        ns=tuple(ns),
        curve=curve,
        norms=norms,
        passed=passed,
    )
