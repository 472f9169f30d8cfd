"""Sparse emission pattern design and difference-set analysis.

Patterns are sets of 1-based pulse slot indices within a coherent
processing interval (CPI) of P slow-time slots. The families implemented
here (nested, super-nested, co-prime, K-level nested) all trade pulse
count against coverage of the lag (difference) set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .memo import memo


class Family(str, Enum):
    STANDARD = "standard"
    NESTED = "nested"
    SUPER_NESTED = "super_nested"
    COPRIME = "coprime"
    K_LEVEL = "k_level"


class PatternError(ValueError):
    """Invalid pattern parameters or malformed pattern."""


@dataclass(frozen=True)
class EmissionPattern:
    """Ordered set of pulse slot indices within a CPI of ``window_size`` slots.

    Slot indices are 1-based and given in units of the pulse repetition
    interval. Co-prime patterns may place slots beyond the observation
    window; all other families fill it exactly.
    """

    window_size: int
    slots: tuple[int, ...]
    family: Family
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.window_size < 1:
            raise PatternError("window_size must be a positive integer")
        if not self.slots:
            raise PatternError("pattern has no slots")
        if any(s < 1 for s in self.slots):
            raise PatternError("slot indices are 1-based and must be >= 1")
        if any(b <= a for a, b in zip(self.slots, self.slots[1:])):
            raise PatternError("slots must be strictly increasing")
        if self.family is not Family.COPRIME and self.max_slot != self.window_size:
            raise PatternError(
                f"{self.family.value} pattern must end at slot P={self.window_size}, "
                f"got max slot {self.max_slot}"
            )

    @property
    def n_transmissions(self) -> int:
        return len(self.slots)

    @property
    def max_slot(self) -> int:
        return self.slots[-1]

    def gap_structure(self) -> list[int]:
        """Sizes of idle runs (no pulse sent) between consecutive slots."""
        return [b - a - 1 for a, b in zip(self.slots, self.slots[1:]) if b - a > 1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "P": self.window_size,
                "family": self.family.value,
                "slots": list(self.slots),
                "params": self.params,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "EmissionPattern":
        doc = json.loads(text)
        return cls(
            window_size=doc["P"],
            slots=tuple(doc["slots"]),
            family=Family(doc["family"]),
            params=dict(doc.get("params", {})),
        )


@dataclass(frozen=True)
class KLevelParams:
    """Level sizes of a K-level nested pattern.

    The implied window is ``levels[-1] * prod(levels[i] + 1 for i < K)``.
    """

    levels: tuple[int, ...]

    def __post_init__(self):
        if not self.levels or any(n < 1 for n in self.levels):
            raise PatternError("levels must be positive integers")
        if len(self.levels) > 1 and self.levels[-1] == 1:
            # A trailing 1-level collapses into the previous level; reject
            # to keep parameterizations unambiguous.
            raise PatternError("last level must be > 1 when K > 1")

    @property
    def window_size(self) -> int:
        p = self.levels[-1]
        for n in self.levels[:-1]:
            p *= n + 1
        return p

    @property
    def n_transmissions(self) -> int:
        return len(build_klevel(self).slots)


@dataclass(frozen=True)
class DifferenceSet:
    """All pairwise slot differences of a pattern, with multiplicities.

    ``position_lags`` is a read-only integer array holding the lag of every
    position of the column-stacked N x N covariance: position ``a + b*N``
    has lag ``slots[a] - slots[b]``. ``lag_counts`` is a read-only array of
    2P-1 counts, how many positions hold each lag -(P-1)..P-1; lags beyond
    the window (co-prime patterns) are not counted.
    """

    window_size: int
    unique_lags: tuple[int, ...]
    multiplicity: dict
    position_lags: np.ndarray = field(compare=False, repr=False)
    lag_counts: np.ndarray = field(compare=False, repr=False)

    def missing_lags(self) -> list[int]:
        """Lags in [-(P-1), P-1] that no slot pair realizes."""
        return (np.flatnonzero(self.lag_counts == 0) - (self.window_size - 1)).tolist()


def build_nested(n1: int, n2: int) -> EmissionPattern:
    """Two-level nested pattern: dense run {1..N1} plus sparse run with pitch N1+1.

    The window is P = N2*(N1+1) and the pattern uses N1+N2 pulses.
    """
    if n1 < 1 or n2 < 1:
        raise PatternError("N1 and N2 must be >= 1")
    dense = set(range(1, n1 + 1))
    sparse = {n * (n1 + 1) for n in range(1, n2 + 1)}
    slots = tuple(sorted(dense | sparse))
    return EmissionPattern(
        window_size=n2 * (n1 + 1),
        slots=slots,
        family=Family.NESTED,
        params={"N1": n1, "N2": n2},
    )


def _divisors(p: int) -> list[int]:
    divs = []
    for d in range(1, int(math.isqrt(p)) + 1):
        if p % d == 0:
            divs.append(d)
            if d != p // d:
                divs.append(p // d)
    return sorted(divs)


def optimal_nested(p: int, preference: str = "fewer_larger_gaps") -> tuple[int, int]:
    """Minimize N1+N2 subject to N2*(N1+1) = P, in closed form.

    When P is not a perfect square there are two distinct optima with the
    same pulse count but different gap structure (a pattern has N2-1 idle
    gaps of size N1 each). ``fewer_larger_gaps`` picks the variant with
    small N2 and large N1; ``more_smaller_gaps`` the transpose.
    """
    if p < 2:
        raise PatternError("P must be >= 2")
    if preference not in ("fewer_larger_gaps", "more_smaller_gaps"):
        raise PatternError(f"unknown preference {preference!r}")
    divs = _divisors(p)
    root = math.sqrt(p)
    d1 = [d for d in divs if d <= root]  # divisors below sqrt(P)
    d2 = [d for d in divs if d >= root]
    if max(d1) == 1:
        # P prime: the standard scheme is the only feasible point.
        return (p - 1, 1)
    if preference == "fewer_larger_gaps":
        return (min(d2) - 1, max(d1))
    return (max(d1) - 1, min(d2))


def _factorize(p: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""
    factors = []
    n = p
    d = 2
    while d * d <= n:
        if n % d == 0:
            q = 0
            while n % d == 0:
                n //= d
                q += 1
            factors.append((d, q))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def optimal_klevel(p: int) -> KLevelParams:
    """Minimal-transmission K-level nesting: one level per prime factor of P.

    With prime factorization P = prod(p_i^q_i), the optimum uses
    K = sum(q_i) levels, each of size p_i - 1 except the last, which is
    the largest prime itself. Total pulses: 1 + sum((p_i - 1) * q_i).
    """
    if p < 2:
        raise PatternError("P must be >= 2")
    factors = _factorize(p)
    levels: list[int] = []
    for prime, q in factors[:-1]:
        levels.extend([prime - 1] * q)
    last_prime, last_q = factors[-1]
    levels.extend([last_prime - 1] * (last_q - 1))
    levels.append(last_prime)
    return KLevelParams(levels=tuple(levels))


def build_klevel(params: KLevelParams) -> EmissionPattern:
    """K-level nested pattern: level i repeats with pitch prod(N_j+1, j<i)."""
    levels = params.levels
    slots: set[int] = set(range(1, levels[0] + 1))
    pitch = 1
    for i in range(1, len(levels)):
        pitch *= levels[i - 1] + 1
        slots |= {n * pitch for n in range(1, levels[i] + 1)}
    return EmissionPattern(
        window_size=params.window_size,
        slots=tuple(sorted(slots)),
        family=Family.K_LEVEL,
        params={"levels": list(levels)},
    )


_SUPER_NESTED_SPLITS = {
    0: lambda r: (r, r - 1, r - 1, r - 2),
    1: lambda r: (r, r - 1, r - 1, r - 1),
    2: lambda r: (r + 1, r - 1, r, r - 2),
    3: lambda r: (r, r, r, r - 1),
}


def build_super_nested(n1: int, n2: int) -> EmissionPattern:
    """Super-nested pattern: six ULA segments with the same lag set as nested.

    Valid for N1 >= 4 and N2 >= 3. Spreads the dense run of the nested
    pattern to reduce back-to-back emissions while keeping the full
    contiguous difference set.
    """
    if n1 < 4 or n2 < 3:
        raise PatternError("super-nested requires N1 >= 4 and N2 >= 3")
    r, rem = divmod(n1, 4)
    a1, b1, a2, b2 = _SUPER_NESTED_SPLITS[rem](r)
    m = n1 + 1
    x1 = {1 + 2 * l for l in range(a1 + 1)}
    y1 = {m - (1 + 2 * l) for l in range(b1 + 1)}
    x2 = {m + (2 + 2 * l) for l in range(a2 + 1)}
    y2 = {2 * m - (2 + 2 * l) for l in range(b2 + 1)}
    z1 = {l * m for l in range(2, n2 + 1)}
    z2 = {n2 * m - 1}
    slots = tuple(sorted(x1 | y1 | x2 | y2 | z1 | z2))
    return EmissionPattern(
        window_size=n2 * m,
        slots=slots,
        family=Family.SUPER_NESTED,
        params={"N1": n1, "N2": n2},
    )


def build_coprime(n1: int, n2: int) -> EmissionPattern:
    """Co-prime pattern: two interleaved ULAs with pitches N2 and N1.

    Requires gcd(N1, N2) = 1 and N1 < N2. The window is P = N1*N2 + 1 but
    slots extend beyond it (up to (2*N1-1)*N2 + 1).
    """
    if math.gcd(n1, n2) != 1:
        raise PatternError("N1 and N2 must be co-prime")
    if not n1 < n2:
        raise PatternError("require N1 < N2")
    sub1 = {k * n2 for k in range(2 * n1)}
    sub2 = {k * n1 for k in range(n2)}
    slots = tuple(sorted(s + 1 for s in sub1 | sub2))  # shift to 1-based
    return EmissionPattern(
        window_size=n1 * n2 + 1,
        slots=slots,
        family=Family.COPRIME,
        params={"N1": n1, "N2": n2},
    )


def build_standard(p: int) -> EmissionPattern:
    """Full uniform pattern: one pulse per slot."""
    if p < 1:
        raise PatternError("P must be >= 1")
    return EmissionPattern(
        window_size=p, slots=tuple(range(1, p + 1)), family=Family.STANDARD
    )


def difference_set(pattern: EmissionPattern) -> DifferenceSet:
    """All pairwise slot differences with multiplicities and covariance positions."""
    slots = np.asarray(pattern.slots)
    p = pattern.window_size
    position_lags = np.subtract.outer(slots, slots).ravel(order="F")
    bins = position_lags + (p - 1)
    lag_counts = np.bincount(bins[(bins >= 0) & (bins < 2 * p - 1)], minlength=2 * p - 1)
    position_lags.setflags(write=False)
    lag_counts.setflags(write=False)
    lags, counts = np.unique(position_lags, return_counts=True)
    lags = tuple(lags.tolist())
    return DifferenceSet(
        window_size=p,
        unique_lags=lags,
        multiplicity=dict(zip(lags, counts.tolist())),
        position_lags=position_lags,
        lag_counts=lag_counts,
    )


@memo(key=lambda pattern: (pattern.window_size, pattern.slots))
def cached_difference_set(pattern: EmissionPattern) -> DifferenceSet:
    """``difference_set(pattern)``, built once per (P, slots) in a process."""
    return difference_set(pattern)


def verify_contiguous_coarray(pattern: EmissionPattern) -> bool:
    """True if the pattern's lag set covers every lag in [-(P-1), P-1].

    Nested and super-nested patterns always pass; K-level patterns
    generally have holes. Co-prime patterns built here pass by design
    (they realize extra lags beyond the window, which lag averaging
    ignores).
    """
    return not difference_set(pattern).missing_lags()
