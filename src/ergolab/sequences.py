"""Non-clustered integer sequences and the counting-condition checkers.

A sequence is non-clustered when every value occurs at most M times for a
uniform M.  The checkers verify, on finite grids, uniform bounds of the
form ``|{k : c(k) <= n}| <= M n`` (and the two-argument row/column
variants), plus the stronger unit-band sufficient condition
``|{k : c(k) in [s, s+1]}| <= M``.

A finite grid always produces a finite maximum of count/n, so a bare
maximum cannot distinguish bounded from clustered data.  Each check
therefore records a stability probe: the witness is recomputed on the
half grid k <= K/2, and the check passes only when the full-grid witness
has not grown materially beyond the half-grid one.  A pass is a certified
finite-window statement, never an asymptotic proof.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, NonPositiveTerm

# Full-grid witness may exceed the half-grid witness by at most this factor.
STABILITY_FACTOR = 1.5


# ---------------------------------------------------------------------------
# Sequence generation
# ---------------------------------------------------------------------------

LINEAR = "linear"
POLYNOMIAL = "polynomial"
PRIMES = "primes"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class SequenceSpec:
    """Generator description with a certified multiplicity bound.

    linear: r_n = n.  polynomial: integer coefficients in ascending order,
    positive leading coefficient, certified strictly increasing on [1, oo)
    so M = 1.  primes: the n-th prime, M = 1.  explicit: a stored list
    whose multiplicity is verified against the claimed bound.
    """

    kind: str
    coefficients: tuple[int, ...] = ()
    values: tuple[int, ...] = ()
    multiplicity_bound: int = 1

    def __post_init__(self):
        if self.multiplicity_bound < 1:
            raise DomainError("multiplicity bound must be a positive integer")
        if self.kind in (LINEAR, PRIMES):
            return
        if self.kind == POLYNOMIAL:
            coeffs = tuple(int(c) for c in self.coefficients)
            object.__setattr__(self, "coefficients", coeffs)
            if not coeffs or coeffs[-1] <= 0:
                raise DomainError(
                    "polynomial sequences need a positive leading coefficient"
                )
            if len(coeffs) == 1:
                raise DomainError("constant polynomials are clustered")
            if not _poly_strictly_increasing(coeffs):
                raise DomainError(
                    "polynomial is not strictly increasing on [1, oo); "
                    "multiplicity 1 cannot be certified"
                )
            return
        if self.kind == EXPLICIT:
            vals = tuple(int(v) for v in self.values)
            object.__setattr__(self, "values", vals)
            if not vals:
                raise DomainError("explicit sequences need at least one value")
            if any(v <= 0 for v in vals):
                raise NonPositiveTerm("explicit sequence values must be positive")
            if multiplicity(vals) > self.multiplicity_bound:
                raise DomainError(
                    f"stored list has multiplicity {multiplicity(vals)}, "
                    f"claimed bound is {self.multiplicity_bound}"
                )
            return
        raise DomainError(f"unknown sequence kind {self.kind!r}")


def _poly_strictly_increasing(coeffs: tuple[int, ...]) -> bool:
    """Certify p(n+1) > p(n) for all real n >= 1 via the difference polynomial."""
    deg = len(coeffs) - 1
    # q(x) = p(x+1) - p(x), coefficients by binomial expansion.
    q = [0] * deg
    for j, c in enumerate(coeffs):
        for i in range(j):
            q[i] += c * math.comb(j, i)
    if _poly_eval(q, 1) <= 0:
        return False
    if len(q) > 1:
        roots = np.roots(q[::-1])
        for r in roots:
            if abs(r.imag) < 1e-9 and r.real >= 1.0 - 1e-9:
                return False
    return True


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sieve(limit: int) -> np.ndarray:
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.flatnonzero(is_prime)


def primes_up_to_count(count: int) -> np.ndarray:
    """First ``count`` primes; the sieve bound extends on demand."""
    if count < 1:
        raise DomainError("need count >= 1")
    bound = int(count * (math.log(count) + math.log(math.log(count)))) if count >= 6 else 15
    while True:
        primes = _sieve(bound)
        if primes.size >= count:
            return primes[:count]
        bound *= 2


def generate(spec: SequenceSpec, count: int) -> np.ndarray:
    """First ``count`` terms r_1..r_count as an int64 array, deterministic."""
    if count < 1:
        raise DomainError("need count >= 1")
    if spec.kind == LINEAR:
        return np.arange(1, count + 1, dtype=np.int64)
    if spec.kind == PRIMES:
        return primes_up_to_count(count).astype(np.int64)
    if spec.kind == POLYNOMIAL:
        terms = [_poly_eval(spec.coefficients, n) for n in range(1, count + 1)]
        if any(t <= 0 for t in terms):
            bad = next(n for n, t in enumerate(terms, start=1) if t <= 0)
            raise NonPositiveTerm(f"term r_{bad} = {terms[bad - 1]} is not positive")
        if max(terms) >= 2 ** 62:
            raise DomainError("polynomial terms exceed the int64 range")
        return np.array(terms, dtype=np.int64)
    if spec.kind == EXPLICIT:
        if count > len(spec.values):
            raise DomainError(
                f"explicit sequence stores {len(spec.values)} terms, {count} requested"
            )
        return np.array(spec.values[:count], dtype=np.int64)
    raise DomainError(f"unknown sequence kind {spec.kind!r}")


def multiplicity(window: Sequence[int]) -> int:
    """Maximum number of repeats of any value in the window."""
    window = list(window)
    if not window:
        raise DomainError("multiplicity of an empty window is undefined")
    return max(Counter(window).values())


# ---------------------------------------------------------------------------
# Counting-condition checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingReport:
    """Finite-grid verdict for one counting condition.

    witness is the largest observed count/n (or the largest band count);
    the worst triple records where it happened.  stability_ratio compares
    the full-grid witness to the half-grid one; None for band checks,
    where the claimed bound itself decides the verdict.
    """

    condition: str
    witness: float
    passed: bool
    worst_n: int
    worst_m: int | None
    worst_count: int
    grid: dict = field(default_factory=dict)
    stability_ratio: float | None = None

    CSV_HEADER = ("condition", "witness_M", "pass", "worst_n", "worst_m", "worst_count")

    def to_csv_row(self) -> tuple:
        return (
            self.condition,
            self.witness,
            self.passed,
            self.worst_n,
            "" if self.worst_m is None else self.worst_m,
            self.worst_count,
        )

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "witness_M": self.witness,
            "pass": self.passed,
            "worst": {"n": self.worst_n, "m": self.worst_m, "count": self.worst_count},
            "grid": self.grid,
            "stability_ratio": self.stability_ratio,
        }


def _checked_values(values, m_grid=None) -> np.ndarray:
    """``values`` as float64, in one row per m of ``m_grid`` if given; a value
    below 1 raises, naming its k (and m).  +inf and NaN never count."""
    arr = np.asarray(values, dtype=np.float64)
    rows = () if m_grid is None else (len(m_grid),)
    if arr.ndim != len(rows) + 1 or arr.shape[:-1] != rows:
        raise DomainError(f"need values of shape {rows + ('K',)}, got {arr.shape}")
    low = np.flatnonzero(arr < 1.0)
    if low.size:
        i, k = divmod(int(low[0]), arr.shape[-1])
        at = f"k={k + 1}" if m_grid is None else f"(m={m_grid[i]}, k={k + 1})"
        raise DomainError(f"value {arr.flat[low[0]]} at {at} is below 1 (must be >= 1 or infinite)")
    return arr


def _witness_curve(values: np.ndarray, n_max: int) -> tuple[float, int, int]:
    """max over n <= n_max of |{k : value_k <= n}| / n, with its argmax."""
    finite = np.sort(values[np.isfinite(values)])
    if finite.size == 0:
        return 0.0, 1, 0
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    counts = np.searchsorted(finite, ns, side="right")
    ratios = counts / ns
    best = int(np.argmax(ratios))
    return float(ratios[best]), best + 1, int(counts[best])


def _stability_pass(witness_full: float, witness_half: float) -> tuple[bool, float | None]:
    if witness_full == 0.0:
        return True, None
    if witness_half == 0.0:
        return False, math.inf
    ratio = witness_full / witness_half
    return ratio <= STABILITY_FACTOR, ratio


def check_c_condition(values, n_max: int) -> CountingReport:
    """Verify |{k <= K : c(k) <= n}| <= M n on the grid n <= n_max, where
    ``values`` holds c(1)..c(K); infinite values never count."""
    values = _checked_values(values)
    k_max = values.size
    if k_max < 2 or n_max < 1:
        raise DomainError("need K >= 2 values and n_max >= 1")
    witness, worst_n, worst_count = _witness_curve(values, n_max)
    passed, ratio = _stability_pass(witness, _witness_curve(values[: k_max // 2], n_max)[0])
    return CountingReport(
        condition="c",
        witness=witness,
        passed=passed,
        worst_n=worst_n,
        worst_m=None,
        worst_count=worst_count,
        grid={"K": k_max, "n_max": n_max},
        stability_ratio=ratio,
    )


def check_b_condition(
    grid, orientation: str, m_grid: Sequence[int], n_max: int
) -> CountingReport:
    """Row i of ``grid`` holds b(m, 1..K) for m = m_grid[i] in the row
    orientation, which counts over the second argument, and b(1..K, m) in
    the column orientation.  The witness is the maximum over the grid and
    must be stable for every grid member.
    """
    if orientation not in ("row", "column"):
        raise DomainError("orientation must be 'row' or 'column'")
    m_grid = [int(m) for m in m_grid]
    if not m_grid:
        raise DomainError("m grid must be nonempty")
    grid = _checked_values(grid, m_grid)
    k_max = grid.shape[1]
    if k_max < 2 or n_max < 1:
        raise DomainError("need K >= 2 values per row and n_max >= 1")
    witness = 0.0
    worst = (1, m_grid[0], 0)
    passed = True
    ratios = []
    for m, values in zip(m_grid, grid):
        w_full, n_at, count_at = _witness_curve(values, n_max)
        ok, ratio = _stability_pass(w_full, _witness_curve(values[: k_max // 2], n_max)[0])
        passed = passed and ok
        if ratio is not None:
            ratios.append(ratio)
        if w_full > witness:
            witness = w_full
            worst = (n_at, m, count_at)
    return CountingReport(
        condition=f"b-{orientation}",
        witness=witness,
        passed=passed,
        worst_n=worst[0],
        worst_m=worst[1],
        worst_count=worst[2],
        grid={"K": k_max, "n_max": n_max, "m_grid": [min(m_grid), max(m_grid)]},
        stability_ratio=max(ratios, default=None),
    )


def check_b_either(
    grids: Iterable, m_grid: Sequence[int], n_max: int
) -> tuple[CountingReport, CountingReport | None]:
    """(decisive report, other attempt or None): the row orientation on the
    first grid ``grids`` yields when it passes, else the column one on the
    second, which is taken from ``grids`` only then."""
    grids = iter(grids)
    row_report = check_b_condition(next(grids), "row", m_grid, n_max)
    if row_report.passed:
        return row_report, None
    return check_b_condition(next(grids), "column", m_grid, n_max), row_report


def check_band_condition(values, s_max: int, claimed_bound: int) -> CountingReport:
    """Pass iff every closed unit band [s, s+1], 1 <= s <= s_max, holds at
    most ``claimed_bound`` of the values c(1)..c(K) in ``values``."""
    values = _checked_values(values)
    k_max = values.size
    if k_max < 1 or s_max < 1:
        raise DomainError("need K >= 1 values and s_max >= 1")
    finite = np.sort(values[np.isfinite(values)])
    bands = np.arange(1, s_max + 1, dtype=np.float64)
    lo_idx = np.searchsorted(finite, bands, side="left")
    hi_idx = np.searchsorted(finite, bands + 1.0, side="right")
    counts = hi_idx - lo_idx
    worst = int(np.argmax(counts))
    worst_count = int(counts[worst])
    return CountingReport(
        condition="band",
        witness=float(worst_count),
        passed=worst_count <= claimed_bound,
        worst_n=worst + 1,
        worst_m=None,
        worst_count=worst_count,
        grid={"K": k_max, "s_max": s_max, "M_claim": claimed_bound},
    )


def gap_time_bound(terms: np.ndarray) -> int:
    """The largest |t| with |t| max r_n < 2^62: the gaps t r_m - t' r_n of
    such times, and their absolute values, are exact in int64."""
    return (2 ** 62 - 1) // int(terms.max())


def _gap_terms(spec: SequenceSpec, t_first: int, t_second: int, count: int):
    """(t_first r_n, t_second r_n) for n = 1..count; raises rather than wrap."""
    terms = generate(spec, count)
    if max(abs(t_first), abs(t_second)) > gap_time_bound(terms):
        raise DomainError(f"times {t_first}, {t_second} by max r_n = {terms.max()} reach 2^62")
    return t_first * terms, t_second * terms


def sequence_gap_b(
    spec: SequenceSpec, t_first: int, t_second: int, m_grid: Sequence[int], k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """b(m, n) = |t_first r_m - t_second r_n| + 1, the embedding built from
    times of two commuting powers, as the (row, column) grids of
    ``check_b_either``: row i holds b(m, 1..K), and b(1..K, m), at m = m_grid[i].
    """
    m_idx = np.asarray(m_grid, dtype=np.int64) - 1
    if m_idx.size == 0 or m_idx.min() < 0:
        raise DomainError("need a nonempty m grid of positive indices")
    first, second = _gap_terms(spec, t_first, t_second, max(k_max, int(m_idx.max()) + 1))
    row = np.abs(first[m_idx, None] - second[None, :k_max]) + 1.0
    column = np.abs(first[None, :k_max] - second[m_idx, None]) + 1.0
    return row, column


def sequence_gap_c(spec: SequenceSpec, t_first: int, t_second: int, count: int) -> np.ndarray:
    """c(n) = |t_first r_n - t_second r_n| + 1 for n = 1..count, infinite
    when the times tie."""
    first, second = _gap_terms(spec, t_first, t_second, count)
    return np.full(count, math.inf) if t_first == t_second else np.abs(first - second) + 1.0
