"""Integer quadratic sequences and their finite-difference structure.

Every spiral arm in this package is an integer quadratic f(x) = ax^2+bx+c
evaluated at x = 1, 2, 3, ...  The constant second difference of the value
sequence equals 2a, so three consecutive values determine the polynomial
exactly (Newton interpolation with integer arithmetic).
"""

import re
from typing import NamedTuple, Sequence


class NotQuadraticError(ValueError):
    """Sequence has a non-constant second difference."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


class NonIntegralError(ValueError):
    """Samples imply a half-integer leading coefficient."""


# Values past 2^63 leave the 64-bit primality contract (factorlab.density_scan),
# and QuadPoly.parse accepts no literal coefficient larger in absolute value.
VALUE_LIMIT = 1 << 63

_POLY_RE = re.compile(r"^(?P<a>[+-]?\d*)x\^2(?P<b>[+-]\d*)x(?P<c>[+-]\d+)$")


def _coef(text: str) -> int:
    if text in ("", "+"):
        return 1
    if text == "-":
        return -1
    return int(text)


class QuadPoly(NamedTuple):
    """Integer quadratic ax^2 + bx + c.

    Python integers are unbounded, so evaluation is exact for any inputs;
    callers that feed results into 64-bit-only contracts (primality over
    machine words) bound-check at that boundary instead.
    """

    a: int
    b: int
    c: int

    def __call__(self, x: int) -> int:
        return (self.a * x + self.b) * x + self.c

    @property
    def d2(self) -> int:
        """Constant second difference of the value sequence."""
        return 2 * self.a

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def first_difference(self, x: int) -> int:
        """f(x+1) - f(x)."""
        return self.a * (2 * x + 1) + self.b

    def values(self, start: int, count: int) -> list[int]:
        return [self(x) for x in range(start, start + count)]

    def __str__(self) -> str:
        s = f"{self.a}x^2"
        s += f" - {-self.b}x" if self.b < 0 else f" + {self.b}x"
        s += f" - {-self.c}" if self.c < 0 else f" + {self.c}"
        return s

    @classmethod
    def parse(cls, text: str) -> "QuadPoly":
        """Parse 'a,b,c' or a compact form like '9x^2+9x-1'.

        Raises ValueError on malformed text or on a coefficient past
        VALUE_LIMIT (2^63) in absolute value.
        """
        text = text.strip()
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 3:
                raise ValueError(f"expected three coefficients, got {text!r}")
            coefs = [int(p) for p in parts]
        else:
            m = _POLY_RE.match(text.replace(" ", ""))
            if not m:
                raise ValueError(f"cannot parse polynomial {text!r}")
            coefs = [_coef(m.group(g)) for g in ("a", "b", "c")]
        if any(abs(v) > VALUE_LIMIT for v in coefs):
            raise ValueError("a literal coefficient exceeds 2^63 in absolute value")
        return cls(*coefs)


class DiffProfile(NamedTuple):
    """First differences plus the common second difference of a sequence."""

    first: tuple[int, ...]
    second: int


def differences(seq: Sequence[int]) -> DiffProfile:
    """First/second differences; raises NotQuadraticError when d2 is not constant."""
    if len(seq) < 3:
        raise ValueError(f"need at least 3 values, got {len(seq)}")
    first = tuple(b - a for a, b in zip(seq, seq[1:]))
    second = first[1] - first[0]
    for i in range(1, len(first) - 1):
        if first[i + 1] - first[i] != second:
            raise NotQuadraticError(i + 2, f"second difference breaks at position {i + 2}")
    return DiffProfile(first=first, second=second)


def extend(seq: Sequence[int], count: int) -> list[int]:
    """Continue the constant-second-difference recurrence by count terms."""
    if count < 0:
        raise ValueError("count must be >= 0")
    prof = differences(seq)
    out = list(seq)
    step, second = prof.first[-1], prof.second
    for _ in range(count):
        step += second
        out.append(out[-1] + step)
    return out


def newton_fit(t0: int, y: Sequence[int]) -> QuadPoly:
    """The unique integer quadratic through (t0, y0), (t0+1, y1), (t0+2, y2).

    With t0 = 1 this reduces to the common convention a = (i-2j+k)/2,
    b = j-i-3a, c = i-a-b.
    """
    if len(y) != 3:
        raise ValueError(f"need exactly 3 samples, got {len(y)}")
    i, j, k = y
    twice_a = i - 2 * j + k
    if twice_a % 2:
        raise NonIntegralError(f"samples {tuple(y)} imply leading coefficient {twice_a}/2")
    a = twice_a // 2
    b = (j - i) - a * (2 * t0 + 1)
    c = i - a * t0 * t0 - b * t0
    return QuadPoly(a, b, c)


def shift(p: QuadPoly, t: int) -> QuadPoly:
    """Reindexed polynomial q with q(x) = p(x + t)."""
    return QuadPoly(p.a, 2 * p.a * t + p.b, (p.a * t + p.b) * t + p.c)


def decimate(p: QuadPoly, m: int, r: int) -> QuadPoly:
    """Arithmetic-subsequence polynomial g with g(t) = p(m*t + r)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 <= r < m:
        raise ValueError(f"need 0 <= r < m, got r={r}")
    return QuadPoly(p.a * m * m, (2 * p.a * r + p.b) * m, p(r))


class Arm(NamedTuple):
    """One spiral arm: its fitted polynomials and leading terms.

    fits[0] is the polynomial through terms 1..3 at x = 1; fits[m] is the
    fit through terms starting one position later, i.e. fits[m](x) =
    fits[0](x + m).
    """

    name: str
    fits: tuple[QuadPoly, ...]
    terms: tuple[int, ...]

    @property
    def poly(self) -> QuadPoly:
        return self.fits[0]


class _ArmSystemFields(NamedTuple):
    name: str
    d2: int
    rotation: str  # "P" (positive) or "N" (negative)
    arms: tuple[Arm, ...] = ()


class ArmSystem(_ArmSystemFields):
    """A family of parallel arms sharing a second difference and rotation sense."""

    __slots__ = ()

    def __new__(cls, name: str, d2: int, rotation: str, arms: tuple[Arm, ...] = ()) -> "ArmSystem":
        if rotation not in ("P", "N"):
            raise ValueError(f"rotation must be P or N, got {rotation!r}")
        return super().__new__(cls, name, d2, rotation, arms)

    @classmethod
    def _make(cls, iterable) -> "ArmSystem":  # behind _replace too; the inherited one skips __new__
        return cls(*iterable)


class RuleFailure(NamedTuple):
    arm: str
    rule: str
    detail: str


class RulesReport(NamedTuple):
    """Outcome of the coefficient rules over one arm system."""

    system: str
    checked: int
    failures: tuple[RuleFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def coefficient_rules_check(system: ArmSystem) -> RulesReport:
    """Verify the three coefficient rules on every arm of a system.

    1. the leading coefficient equals d2/2 in every fit;
    2. b steps by d2 from one fit to the next;
    3. for fits beyond the first, c equals the sequence term preceding the
       three fitted samples.
    """
    failures: list[RuleFailure] = []
    for arm in system.arms:
        for idx, fit in enumerate(arm.fits):
            if 2 * fit.a != system.d2:
                failures.append(
                    RuleFailure(arm.name, "a=d2/2", f"fit {idx + 1} has a={fit.a}, d2={system.d2}")
                )
        for idx in range(1, len(arm.fits)):
            if arm.fits[idx].b - arm.fits[idx - 1].b != system.d2:
                failures.append(
                    RuleFailure(
                        arm.name,
                        "b-step=d2",
                        f"fit {idx} -> {idx + 1} steps b by "
                        f"{arm.fits[idx].b - arm.fits[idx - 1].b}",
                    )
                )
            if idx - 1 < len(arm.terms) and arm.fits[idx].c != arm.terms[idx - 1]:
                failures.append(
                    RuleFailure(
                        arm.name,
                        "c=preceding-term",
                        f"fit {idx + 1} has c={arm.fits[idx].c}, "
                        f"preceding term is {arm.terms[idx - 1]}",
                    )
                )
    return RulesReport(system=system.name, checked=len(system.arms), failures=tuple(failures))
