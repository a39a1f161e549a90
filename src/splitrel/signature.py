"""Split-reliability signatures, evaluation and exact dominance.

A signature is the split count vector N_0..N_m of a two-terminal graph, a
`counting.CoefficientVector`; F_i = N_{m-i} is the failed-edge view.  Since
SR(p) = sum_i N_i p^i (1-p)^(m-i), the count vector is the polynomial (an
unnormalised Bernstein vector), and it is the only representation used:
evaluation at k/q is an integer sum over q^m, and the dominance decision on
[0, 1] runs on integer difference vectors down to its Sturm fallback.
`Fraction` appears only for rational points.  No floating point anywhere.

The paper's near-0 and near-1 orders are plain tuple order on `counts` (N)
and on `f_tuple()` (F); the first index where two N-vectors differ is the
near-zero witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from .counting import CoefficientVector


# ---------------------------------------------------------------------------
# signatures

# A signature is the split count vector of a two-terminal graph; the name
# stays for callers that build one directly.
SplitSignature = CoefficientVector


def sr_polynomial(sig: CoefficientVector) -> tuple[int, ...]:
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
    """Sturm chain of an integer polynomial f of degree >= 1: f, f' and the
    negated pseudo-remainders, down to gcd(f, f').  At a point where f does
    not vanish, its sign variations count the distinct real roots of f.

    Each element is a positive rational multiple of the textbook chain entry,
    which leaves all sign variations intact; the lc^steps scaling introduced
    by pseudo-division is compensated by its sign.
    """
    chain = [_iprimitive(f), _iprimitive(_ideriv(f))]
    while _ideg(chain[-1]) > 0:
        rem, steps = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        lc = chain[-1][-1]
        sign = 1 if (lc > 0 or steps % 2 == 0) else -1
        nxt = [-c * sign for c in rem]
        chain.append(_iprimitive(nxt))
    return chain


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


def _nonroot_split(f: list[int], d: int, a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside (a, b) where f does not vanish, when f has
    fewer than d distinct roots."""
    for k in range(1, 2 * d + 3):
        x = a + (b - a) * Fraction(k, 2 * d + 3)
        if _sign_at(f, x) != 0:
            return x
    raise AssertionError("no non-root split point found")


def _isolate(f: list[int], chain: list[list[int]], count: int) -> list[tuple[Fraction, Fraction]]:
    """Ascending intervals inside (0, 1) that each hold one of its `count`
    distinct roots of f and end neither at 0 nor at 1.

    The splits run from a work list, not by recursion: a root near 1 can take
    thousands of splits to keep its interval off 1."""
    # chain[-1] is gcd(f, f'): f has len(f) - len(chain[-1]) distinct complex roots
    d = len(f) - len(chain[-1]) + 1
    out, todo = [], [(Fraction(0), Fraction(1), count)]
    while todo:
        a, b, count = todo.pop()
        if count == 1 and a != 0 and b != 1:
            out.append((a, b))
        elif count:
            mid = _nonroot_split(f, d, a, b)
            left = _count_roots(chain, a, mid)
            todo += [(mid, b, count - left), (a, mid, left)]
    return out


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


# Refutation points k/q, in the order their witnesses are reported.
_PRESAMPLE = [(k, 64) for k in range(1, 64)] + [(1, 1024), (1023, 1024)]


def _scaled_value(d: Sequence[int], k: int, q: int) -> int:
    """q^m times sum_i d_i x^i (1-x)^(m-i) at x = k/q (homogeneous Horner)."""
    acc, rest, rest_pow = 0, q - k, 1
    for c in reversed(d):
        acc = acc * k + c * rest_pow
        rest_pow *= rest
    return acc


def dominates_on_unit_interval(a: Sequence[int], b: Sequence[int]) -> DominanceVerdict:
    """Decide exactly whether SR_a(p) >= SR_b(p) for all p in [0, 1], where
    a and b are count vectors N_0..N_m of one class.

    On the integer difference d = a - b: nonnegative coefficients certify
    (no presample point could refute such a d); d_0 and d_m are the
    endpoint values; the presample refutes.  What is left goes to Sturm
    root isolation.
    """
    if len(a) != len(b):
        raise ValueError(f"count vectors of different lengths: {len(a)} vs {len(b)}")
    d = [x - y for x, y in zip(a, b)]
    if all(c >= 0 for c in d):
        return DominanceVerdict(True, None)
    if d[0] < 0:
        return DominanceVerdict(False, Fraction(0))
    if d[-1] < 0:
        return DominanceVerdict(False, Fraction(1))
    for k, q in _PRESAMPLE:
        if _scaled_value(d, k, q) < 0:
            return DominanceVerdict(False, Fraction(k, q))
    return _sturm_dominance(d)


def _sturm_dominance(d: Sequence[int]) -> DominanceVerdict:
    """Complete decision of SR_d(p) >= 0 on [0, 1] for an integer difference
    vector d: Sturm isolation of the real roots in (0, 1) of its power-basis
    expansion, with exact sign evaluations between consecutive roots.

    A zero first or last count is a factor p or (1 - p), positive on (0, 1),
    so the zero end counts are stripped first and e has no root at 0 or 1."""
    nonzero = [i for i, c in enumerate(d) if c]
    e = _power_basis(d[nonzero[0] : nonzero[-1] + 1]) if nonzero else []
    if _ideg(e) <= 0:
        if not e or e[0] >= 0:
            return DominanceVerdict(True, None)
        return DominanceVerdict(False, Fraction(1, 2))
    chain = _sturm_chain(e)
    intervals = _isolate(e, chain, _count_roots(chain, Fraction(0), Fraction(1)))
    samples: list[Fraction] = []
    if not intervals:
        samples.append(Fraction(1, 2))
    else:
        samples.append(intervals[0][0])
        for (_, hi), (lo2, _) in zip(intervals, intervals[1:]):
            samples.append(hi if hi == lo2 else (hi + lo2) / 2)
        samples.append(intervals[-1][1])
    for x in samples:
        if _sign_at(e, x) < 0:
            return DominanceVerdict(False, x)
    return DominanceVerdict(True, None)
