"""Split-reliability signatures, evaluation and exact dominance.

A signature holds the exact split-subgraph counts N_0..N_m of a two-terminal
graph; F_i = N_{m-i} is the failed-edge view.  Since
SR(p) = sum_i N_i p^i (1-p)^(m-i), the count vector is the polynomial (an
unnormalised Bernstein vector), and it is the only representation used:
evaluation at k/q is an integer sum over q^m, and the dominance decision on
[0, 1] runs on integer difference vectors down to its Sturm fallback.
`Fraction` appears only for rational points.  No floating point anywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from .counting import CoefficientVector


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


def sr_polynomial(sig: SplitSignature) -> tuple[int, ...]:
    """The split reliability polynomial of a signature: its count vector, the
    coefficients of SR in the basis p^i (1-p)^(m-i)."""
    return sig.counts


def evaluate(counts: Sequence[int], p) -> Fraction:
    """SR(p) = sum_i counts[i] p^i (1-p)^(m-i), exactly, at a rational p
    (a Fraction, an int, or a string such as "1/2")."""
    x = Fraction(p)
    q = x.denominator
    return Fraction(_scaled_value(counts, x.numerator, q), q ** (len(counts) - 1))


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


def _power_basis(d: Sequence[int]) -> list[int]:
    """sum_i d_i x^i (1-x)^(m-i) expanded into the power basis, as integers
    (lowest degree first, no trailing zeros)."""
    m = len(d) - 1
    out = [0] * (m + 1)
    for i, c in enumerate(d):
        if c:
            rest = m - i
            for k in range(rest + 1):
                out[i + k] += c * comb(rest, k) * (-1) ** k
    return _istrip(out)


def _exact_div(f: list[int], g: list[int]) -> list[int]:
    """f / g for integer polynomials whose quotient is integral."""
    f = f[:]
    q = [0] * (len(f) - len(g) + 1)
    for shift in reversed(range(len(q))):
        c, r = divmod(f[shift + _ideg(g)], g[-1])
        if r:
            raise AssertionError("gcd does not divide the polynomial")
        q[shift] = c
        for i, gc in enumerate(g):
            f[i + shift] -= c * gc
    if any(f):
        raise AssertionError("gcd does not divide the polynomial")
    return q


def _squarefree(e: list[int]) -> list[int]:
    """Integer squarefree part (same root set, multiplicity one): f / gcd(f, f')
    with the gcd from a primitive pseudo-remainder sequence.  The gcd is
    primitive, so by Gauss's lemma the quotient is integral."""
    f = _iprimitive(e)
    a, b = f, _iprimitive(_ideriv(f))
    while b:
        a, b = b, _iprimitive(_pseudo_rem(a, b)[0])
    if _ideg(a) < 1:
        return f
    return _iprimitive(_exact_div(f, a))


def _deflate_endpoints(e: list[int]) -> list[int]:
    """Divide out all roots at 0 and 1; sign on (0,1) is unchanged."""
    e = list(e)
    while e and e[0] == 0:
        e.pop(0)
    while e and sum(e) == 0:
        # synthetic division by (x - 1), then flip sign for the (1 - x) factor
        out = []
        acc = 0
        for c in reversed(e):
            acc += c
            out.append(acc)
        out.pop()  # remainder (zero)
        e = [-c for c in reversed(out)]
    return e


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
    return _sturm_dominance(d)


def _sturm_dominance(d: Sequence[int]) -> DominanceVerdict:
    """Complete decision of SR_d(p) >= 0 on [0, 1] for an integer difference
    vector d: Sturm isolation of the real roots in (0, 1) of its power-basis
    expansion, with exact sign evaluations between consecutive roots."""
    e = _deflate_endpoints(_power_basis(d))
    if _ideg(e) <= 0:
        if not e or e[0] >= 0:
            return DominanceVerdict(True, None)
        return DominanceVerdict(False, Fraction(1, 2))
    f = _squarefree(e)
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
        if _sign_at(e, x) < 0:
            return DominanceVerdict(False, x)
    return DominanceVerdict(True, None)
