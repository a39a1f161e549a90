"""Split-reliability signatures and exact polynomial algebra.

A signature holds the exact split-subgraph counts N_0..N_m of a two-terminal
graph; F_i = N_{m-i} is the failed-edge view.  Since
SR(p) = sum_i N_i p^i (1-p)^(m-i), the counts are an unnormalised Bernstein
vector, and the dominance decision on [0, 1] runs on integer count vectors;
only its Sturm fallback and `evaluate` use rational power-basis polynomials.
No floating point anywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from .counting import CoefficientVector


def _strip(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class ExactPolynomial:
    """Univariate polynomial with exact rational coefficients (power basis,
    lowest degree first, no trailing zeros; the zero polynomial is empty)."""

    coefficients: tuple[Fraction, ...]

    @classmethod
    def make(cls, coeffs: Sequence) -> "ExactPolynomial":
        return cls(_strip([Fraction(c) for c in coeffs]))

    @classmethod
    def zero(cls) -> "ExactPolynomial":
        return cls(())

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        a, b = self.coefficients, other.coefficients
        size = max(len(a), len(b))
        return ExactPolynomial.make(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(size)
            ]
        )

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if self.is_zero() or other.is_zero():
            return ExactPolynomial.zero()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return ExactPolynomial.make(out)

    def scale(self, c) -> "ExactPolynomial":
        c = Fraction(c)
        return ExactPolynomial.make([c * a for a in self.coefficients])

    def shift_up(self, k: int) -> "ExactPolynomial":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return ExactPolynomial((Fraction(0),) * k + self.coefficients)


def evaluate(poly: ExactPolynomial, p) -> Fraction:
    """Exact Horner evaluation at a rational point."""
    x = Fraction(p)
    acc = Fraction(0)
    for c in reversed(poly.coefficients):
        acc = acc * x + c
    return acc


def survival_polynomial(counts: Sequence[int], m: int) -> ExactPolynomial:
    """Sum of counts[i] * p^i * (1-p)^(m-i), expanded into the power basis."""
    out = [0] * (m + 1)
    for i, c in enumerate(counts):
        if c:
            rest = m - i
            for k in range(rest + 1):
                out[i + k] += c * comb(rest, k) * (-1) ** k
    return ExactPolynomial.make(out)


# ---------------------------------------------------------------------------
# signatures

@dataclass(frozen=True)
class SplitSignature:
    """Exact split-subgraph coefficient vector of a two-terminal graph."""

    n: int
    m: int
    counts: tuple[int, ...]  # N_i, indexed by surviving edges

    def __post_init__(self) -> None:
        if len(self.counts) != self.m + 1:
            raise ValueError("counts must have length m+1")

    @classmethod
    def from_vector(cls, n: int, vec: CoefficientVector) -> "SplitSignature":
        return cls(n, vec.m, vec.counts)

    def f_value(self, i: int) -> int:
        """F_i: split subgraphs with i failed edges (= N_{m-i})."""
        return self.counts[self.m - i]

    def f_tuple(self) -> tuple[int, ...]:
        return tuple(reversed(self.counts))


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def lex_compare(xs: Sequence[int], ys: Sequence[int]) -> tuple[Ordering, Optional[int]]:
    """Lexicographic comparison plus the first differing index (None if equal)."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    for i, (a, b) in enumerate(zip(xs, ys)):
        if a != b:
            return (Ordering.GREATER if a > b else Ordering.LESS, i)
    return (Ordering.EQUAL, None)


def _require_same_class(a: SplitSignature, b: SplitSignature) -> None:
    if (a.n, a.m) != (b.n, b.m):
        raise ValueError(
            f"signatures from different classes: ({a.n},{a.m}) vs ({b.n},{b.m})"
        )


def compare_near_zero(a: SplitSignature, b: SplitSignature) -> Ordering:
    """Lexicographic order of (N_0..N_m); GREATER means a's reliability wins on
    some interval (0, delta)."""
    _require_same_class(a, b)
    return lex_compare(a.counts, b.counts)[0]


def compare_near_zero_index(a: SplitSignature, b: SplitSignature) -> tuple[Ordering, Optional[int]]:
    _require_same_class(a, b)
    return lex_compare(a.counts, b.counts)


def compare_near_one(a: SplitSignature, b: SplitSignature) -> Ordering:
    """Lexicographic order of (F_0..F_m); GREATER means a wins on (1-delta, 1)."""
    _require_same_class(a, b)
    return lex_compare(a.f_tuple(), b.f_tuple())[0]


def compare_near_one_index(a: SplitSignature, b: SplitSignature) -> tuple[Ordering, Optional[int]]:
    _require_same_class(a, b)
    return lex_compare(a.f_tuple(), b.f_tuple())


def split_equivalent(a: SplitSignature, b: SplitSignature) -> bool:
    """Identical F-tuples, equivalently identical reliability polynomials."""
    _require_same_class(a, b)
    return a.counts == b.counts


def sr_polynomial(sig: SplitSignature) -> ExactPolynomial:
    """The split reliability polynomial of a signature, in the power basis."""
    return survival_polynomial(sig.counts, sig.m)


# ---------------------------------------------------------------------------
# exact dominance on [0, 1]

@dataclass(frozen=True)
class DominanceVerdict:
    dominates: bool
    witness: Optional[Fraction]  # rational point with a(p) < b(p), when crossing

    def to_json_dict(self) -> dict:
        return {
            "verdict": "dominates" if self.dominates else "crossing",
            "witness": None if self.witness is None else str(self.witness),
        }


def _int_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    """Clear denominators and strip content, preserving sign."""
    if not coeffs:
        return []
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _ideg(p: list[int]) -> int:
    return len(p) - 1


def _istrip(p: list[int]) -> list[int]:
    q = p[:]
    while q and q[-1] == 0:
        q.pop()
    return q


def _ideriv(p: list[int]) -> list[int]:
    return _istrip([i * c for i, c in enumerate(p)][1:])


def _iprimitive(p: list[int]) -> list[int]:
    g = 0
    for v in p:
        g = gcd(g, abs(v))
    return [v // g for v in p] if g > 1 else p[:]


def _pseudo_rem(f: list[int], g: list[int]) -> tuple[list[int], int]:
    """Scaled remainder: returns (lc(g)^steps * rem(f, g), steps) over the integers."""
    f = f[:]
    dg = _ideg(g)
    lc = g[-1]
    steps = 0
    while f and _ideg(f) >= dg:
        steps += 1
        shift = _ideg(f) - dg
        lead = f[-1]
        f = [c * lc for c in f]
        for i, gc in enumerate(g):
            f[i + shift] -= lead * gc
        f = _istrip(f)
    return f, steps


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm chain of a squarefree integer polynomial.

    Each element is a positive rational multiple of the textbook chain entry,
    which leaves all sign variations intact; the lc^steps scaling introduced
    by pseudo-division is compensated by its sign.
    """
    chain = [_iprimitive(f), _iprimitive(_ideriv(f))]
    while chain[-1] and _ideg(chain[-1]) > 0:
        rem, steps = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        lc = chain[-1][-1]
        sign = 1 if (lc > 0 or steps % 2 == 0) else -1
        nxt = [-c * sign for c in rem]
        chain.append(_iprimitive(nxt))
    return [c for c in chain if c]


def _sign_at(p: list[int], x: Fraction) -> int:
    """Sign of p(x) by homogeneous integer Horner (no rational arithmetic)."""
    num, den = x.numerator, x.denominator
    acc = 0
    dp = 1
    for c in reversed(p):
        acc = acc * num + c * dp
        dp *= den
    return (acc > 0) - (acc < 0)


def _variations(signs: Sequence[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _count_roots(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Distinct roots in the open interval (a, b); endpoints must not be roots."""
    va = _variations([_sign_at(p, a) for p in chain])
    vb = _variations([_sign_at(p, b) for p in chain])
    return va - vb


def _nonroot_split(f: list[int], a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside (a, b) where f does not vanish."""
    d = len(f)  # more candidates than f has roots
    for k in range(1, 2 * d + 3):
        x = a + (b - a) * Fraction(k, 2 * d + 3)
        if _sign_at(f, x) != 0:
            return x
    raise AssertionError("no non-root split point found")


def _isolate(
    f: list[int], chain: list[list[int]], a: Fraction, b: Fraction, count: int
) -> list[tuple[Fraction, Fraction]]:
    if count == 0:
        return []
    if count == 1:
        return [(a, b)]
    mid = _nonroot_split(f, a, b)
    left = _count_roots(chain, a, mid)
    return _isolate(f, chain, a, mid, left) + _isolate(f, chain, mid, b, count - left)


def _refine_interior(
    f: list[int], chain: list[list[int]], lo: Fraction, hi: Fraction, away_from: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval until `away_from` is no longer an endpoint."""
    while lo == away_from or hi == away_from:
        mid = _nonroot_split(f, lo, hi)
        if _count_roots(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _squarefree_int(coeffs: Sequence[Fraction]) -> list[int]:
    """Integer squarefree part (same root set, multiplicity one)."""
    f = _int_coeffs(list(coeffs))
    fp = _ideriv(f)
    g = _int_gcd_poly(f, fp)
    if _ideg(g) < 1:
        return _iprimitive(f)
    q, r = _int_poly_div(f, g)
    if r:
        raise AssertionError("gcd does not divide the polynomial")
    return _iprimitive(q)


def _int_poly_div(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Exact division over the rationals, returned as integer-primitive parts."""
    fq = [Fraction(c) for c in f]
    gq = [Fraction(c) for c in g]
    q = [Fraction(0)] * max(len(fq) - len(gq) + 1, 1)
    while len(fq) >= len(gq) and any(fq):
        while fq and fq[-1] == 0:
            fq.pop()
        if len(fq) < len(gq):
            break
        shift = len(fq) - len(gq)
        coef = fq[-1] / gq[-1]
        q[shift] += coef
        for i, gc in enumerate(gq):
            fq[i + shift] -= coef * gc
        fq.pop()
    rem = _int_coeffs(_strip(fq)) if any(fq) else []
    quo = _int_coeffs(_strip(q)) if any(q) else []
    return quo, rem


def _int_gcd_poly(f: list[int], g: list[int]) -> list[int]:
    a, b = _istrip(f), _istrip(g)
    while b:
        _, r = _int_poly_div(a, b)
        a, b = b, r
    return _iprimitive(a) if a else []


def _deflate_endpoints(d: ExactPolynomial) -> tuple[ExactPolynomial, int, int]:
    """Divide out all roots at 0 and 1; sign on (0,1) is unchanged."""
    coeffs = list(d.coefficients)
    v0 = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        v0 += 1
    v1 = 0
    while coeffs and sum(coeffs) == 0:
        # synthetic division by (x - 1), then flip sign for the (1 - x) factor
        out = []
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc += c
            out.append(acc)
        out.pop()  # remainder (zero)
        coeffs = [-c for c in reversed(out)]
        v1 += 1
    return ExactPolynomial.make(coeffs), v0, v1


# Refutation points k/q, in the order their witnesses are reported.
_PRESAMPLE = [(k, 64) for k in range(1, 64)] + [(1, 1024), (1023, 1024)]

_BERNSTEIN_LIFT = 10
_LIFT_BINOMIALS = [comb(_BERNSTEIN_LIFT, k) for k in range(_BERNSTEIN_LIFT + 1)]


def _scaled_value(d: Sequence[int], k: int, q: int) -> int:
    """q^m times sum_i d_i x^i (1-x)^(m-i) at x = k/q (homogeneous Horner)."""
    acc, rest, rest_pow = 0, q - k, 1
    for c in reversed(d):
        acc = acc * k + c * rest_pow
        rest_pow *= rest
    return acc


def _lifted(d: Sequence[int]) -> list[int]:
    """The count vector of the same polynomial over m + _BERNSTEIN_LIFT edges:
    c_j = sum_i d_i * C(lift, j - i)."""
    out = [0] * (len(d) + _BERNSTEIN_LIFT)
    for i, c in enumerate(d):
        if c:
            for k, w in enumerate(_LIFT_BINOMIALS):
                out[i + k] += c * w
    return out


def dominates_on_unit_interval(a: Sequence[int], b: Sequence[int]) -> DominanceVerdict:
    """Decide exactly whether SR_a(p) >= SR_b(p) for all p in [0, 1], where
    a and b are count vectors N_0..N_m of one class.

    On the integer difference d = a - b: d_0 and d_m are the endpoint
    values, the presample refutes, and nonnegative coefficients after degree
    elevation certify.  What is left goes to Sturm root isolation.
    """
    if len(a) != len(b):
        raise ValueError(f"count vectors of different lengths: {len(a)} vs {len(b)}")
    d = [x - y for x, y in zip(a, b)]
    if not any(d):
        return DominanceVerdict(True, None)
    if d[0] < 0:
        return DominanceVerdict(False, Fraction(0))
    if d[-1] < 0:
        return DominanceVerdict(False, Fraction(1))
    for k, q in _PRESAMPLE:
        if _scaled_value(d, k, q) < 0:
            return DominanceVerdict(False, Fraction(k, q))
    if all(c >= 0 for c in _lifted(d)):
        return DominanceVerdict(True, None)
    return _sturm_dominance(survival_polynomial(d, len(d) - 1))


def _sturm_dominance(d: ExactPolynomial) -> DominanceVerdict:
    """Complete decision of d(p) >= 0 on [0, 1]: Sturm isolation of the real
    roots of d in (0, 1), with exact sign evaluations between consecutive
    roots."""
    e, _, _ = _deflate_endpoints(d)
    if e.degree <= 0:
        val = e.coefficients[0] if e.coefficients else Fraction(0)
        if val >= 0:
            return DominanceVerdict(True, None)
        return DominanceVerdict(False, Fraction(1, 2))
    f = _squarefree_int(e.coefficients)
    chain = _sturm_chain(f)
    zero, one = Fraction(0), Fraction(1)
    total = _count_roots(chain, zero, one)
    intervals = _isolate(f, chain, zero, one, total)
    refined = []
    for lo, hi in intervals:
        lo, hi = _refine_interior(f, chain, lo, hi, zero)
        lo, hi = _refine_interior(f, chain, lo, hi, one)
        refined.append((lo, hi))
    samples: list[Fraction] = []
    if not refined:
        samples.append(Fraction(1, 2))
    else:
        samples.append(refined[0][0])
        for (_, hi), (lo2, _) in zip(refined, refined[1:]):
            samples.append(hi if hi == lo2 else (hi + lo2) / 2)
        samples.append(refined[-1][1])
    for x in samples:
        if evaluate(e, x) < 0:
            return DominanceVerdict(False, x)
    return DominanceVerdict(True, None)
