"""Norm growth of matrix powers and commuting pairs.

Classifies growth profiles (exponential base from the spectral radius,
polynomial degree from Jordan structure), verifies the linear lower bound
of unit-modulus Jordan blocks, and converts commuting-pair norm growth
into the counting conditions through the sequences-module checkers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

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
# An eigenbasis of condition number k costs the balance norms about k * eps
# of relative precision.
CONDITION_LIMIT = 1e6
EIGENBASIS_SLAB = 4096  # exponents n per batched eigenbasis product


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


class NormPower(NamedTuple):
    value: float
    log: float

    @classmethod
    def from_log(cls, log: float) -> "NormPower":
        """The norm e^log, inf where it would overflow."""
        return cls(math.exp(log) if log < 709.0 else math.inf, log)


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
    from rank deficiencies of (M - lambda I)^j.  Ranks do not change with
    scale, so the chain runs on M / max(1, ||M||) with a fixed tolerance."""
    d = arr.shape[0]
    eigenvalues = np.linalg.eigvals(arr)
    top = [lam for lam in eigenvalues if abs(abs(lam) - modulus) <= 1e-6 * max(modulus, 1.0)]
    # Deduplicate close eigenvalues to avoid recomputing identical chains.
    reps: list[complex] = []
    for lam in top:
        if all(abs(lam - r) > 1e-6 for r in reps):
            reps.append(lam)
    scale = max(1.0, spectral_norm(arr))
    largest = 1
    for lam in reps:
        shifted = arr / scale - lam / scale * np.eye(d)
        prev_rank = d
        power = np.eye(d, dtype=complex)
        for j in range(1, d + 1):
            power = power @ shifted
            rank = int(np.linalg.matrix_rank(power, tol=1e-9))
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
    steps = _running_products(np.eye(arr.shape[0])[None], np.zeros(1), arr)
    logs = np.array([log[0] for _, log in islice(steps, n_max)])
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

def _running_products(acc: np.ndarray, log_starts, step: np.ndarray):
    """Yield (S_i step^n / ||S_i step^n||, log ||S_i step^n||) over rows i
    for n = 1, 2, ..., from the stack ``acc`` of unit-norm S_i / ||S_i|| and
    the log ||S_i|| in ``log_starts``: one running product per row, divided
    by its norm after every step.  The batched matmul and svd give each
    matrix the bits of the one-matrix calls and each log is a ``math.log``,
    so every log is the float a scalar loop gives."""
    step_norm = spectral_norm(step)
    step_unit = step / step_norm
    log_step = math.log(step_norm)
    log_acc = np.array(log_starts, dtype=np.float64)
    while True:
        acc = acc @ step_unit
        s = np.linalg.svd(acc, compute_uv=False)[:, 0]
        log_acc = log_acc + (log_step + np.array([math.log(v) for v in s.tolist()]))
        acc = acc / s[:, None, None]
        yield acc, log_acc


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
    outer = [int(m) for m in outer_exponents]
    eye = np.eye(first.shape[0])
    # first^m for m = 0..max(outer), as (unit-norm matrix, log norm).
    powers = [(eye, 0.0)] + [
        (acc[0], log[0])
        for acc, log in islice(_running_products(eye[None], [0.0], first), max(outer, default=0))
    ]
    units = np.array([powers[m][0] for m in outer]).reshape(len(outer), *first.shape)
    steps = _running_products(units, [powers[m][1] for m in outer], second)
    grid = np.empty((len(outer), inner_max))
    for n, (_, log) in zip(range(inner_max), steps):
        grid[:, n] = log
    return grid


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


class BalanceSpectrum(NamedTuple):
    """The shared eigenbasis of a pair, h^m g^n = V diag(t^m s^n) V^-1, and
    the expanded (+) and contracted (-) (s, t) pairs the bound's curve takes."""

    s: np.ndarray           # eigenvalues of g
    t: np.ndarray           # eigenvalues of h on the same eigenvectors
    vectors: np.ndarray     # V, the eigenvectors as columns
    threshold: int
    plus: tuple[complex, complex]
    minus: tuple[complex, complex]


def balance_spectrum(pair: CommutingPair, m: int) -> BalanceSpectrum:
    """The hypotheses of the balance bound at h exponent m, checked.

    Requires simultaneously diagonalizable, strictly hyperbolic spectra
    with the expanded-by-g <=> contracted-by-h pairing, a contracted
    eigenvalue that balances the threshold, and a shared eigenbasis of
    condition number at most CONDITION_LIMIT.  A modulus within 1e-9 of 1
    raises Indeterminate, any other violation HypothesisFailed (the
    simultaneous-eigenvector case applies there instead and is reported,
    not computed).
    """
    if m < 0:
        raise DomainError("need m >= 0")
    values, vectors = np.linalg.eig(pair.g)
    eigenpairs = []
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
        eigenpairs.append((complex(values[j]), t))
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

    top_plus = max(plus, key=lambda st: weight(st, max(threshold, 1)))
    top_minus = max(minus, key=lambda st: weight(st, max(threshold - 1, 0)))
    if m > 0 and weight(top_minus, threshold - 1) <= 1.0 - 1e-9:
        raise HypothesisFailed(
            "no contracted eigenvalue balances the threshold; for matrices "
            "away from determinant one the bound rescales by |det| factors"
        )
    condition = float(np.linalg.cond(vectors))
    if not condition <= CONDITION_LIMIT:
        raise HypothesisFailed(
            f"the shared eigenbasis has condition number {condition:.3g}, above "
            f"{CONDITION_LIMIT:.0e}; its norms would lose that factor of precision"
        )
    s, t = (np.array(column) for column in zip(*eigenpairs))
    return BalanceSpectrum(s, t, vectors, threshold, top_plus, top_minus)


def _eigenbasis_logs(spectrum: BalanceSpectrum, m: int, ns: np.ndarray) -> np.ndarray:
    """log ||V diag(t^m s^n) V^-1|| for each n: every t^m s^n is formed from
    its log modulus and its phase, less the largest log modulus at that n,
    so no factor overflows and no power is multiplied out."""
    log_mod = m * np.log(np.abs(spectrum.t)) + ns[:, None] * np.log(np.abs(spectrum.s))
    top = log_mod.max(axis=1)
    phase = m * np.angle(spectrum.t) + ns[:, None] * np.angle(spectrum.s)
    weights = np.exp(log_mod - top[:, None] + 1j * phase)
    products = (spectrum.vectors * weights[:, None, :]) @ np.linalg.inv(spectrum.vectors)
    # A real pair's powers are real; the imaginary part is round-off.
    return top + np.log(np.linalg.svd(products.real, compute_uv=False)[:, 0])


def hyperbolic_balance_bound(
    pair: CommutingPair, m: int, n_range: Sequence[int]
) -> BalanceBound:
    """Verify ||h^m g^n|| against the balanced two-eigenvalue lower bound.

    The hypotheses are those of ``balance_spectrum``, and the norms come
    from its eigenbasis, a slab of EIGENBASIS_SLAB exponents n at a time.
    """
    ns = [int(n) for n in n_range]
    if not ns or any(n < 0 for n in ns):
        raise DomainError("n_range must be nonempty and nonnegative")
    spectrum = balance_spectrum(pair, m)
    (s_plus, t_plus), (s_minus, t_minus) = spectrum.plus, spectrum.minus
    ns_arr = np.asarray(ns, dtype=np.int64)
    curve = 0.5 * (
        np.abs(s_plus) ** ns_arr * abs(t_plus) ** m
        + np.abs(s_minus) ** ns_arr * abs(t_minus) ** m
    )
    logs = np.concatenate([
        _eigenbasis_logs(spectrum, m, ns_arr[i:i + EIGENBASIS_SLAB])
        for i in range(0, ns_arr.size, EIGENBASIS_SLAB)
    ])
    with np.errstate(over="ignore"):
        norms = np.exp(logs)
    passed = bool(np.all(norms >= curve * (1.0 - 1e-9)))
    return BalanceBound(
        m=m,
        threshold=spectrum.threshold,
        ns=tuple(ns),
        curve=curve,
        norms=norms,
        passed=passed,
    )
