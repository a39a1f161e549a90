"""Split-reliability signatures, evaluation and exact dominance.

A signature is the split count vector N_0..N_m of a two-terminal graph, a
`counting.CoefficientVector`; F_i = N_{m-i} is the failed-edge view.  Since
SR(p) = sum_i N_i p^i (1-p)^(m-i), the count vector is the polynomial (an
unnormalised Bernstein vector), and it is the only representation used:
evaluation at k/q is an integer sum over q^m, and the dominance decision on
[0, 1] runs on integer difference vectors down to its Sturm fallback.
`Fraction` appears only for rational points.  No floating point anywhere.

The Sturm fallback reads a count vector d as the power-basis polynomial
D(x) = sum_i d_i x^i in x = p/(1-p): on (0, 1), SR_d(p) = (1-p)^m D(x), and
p -> x is increasing onto (0, oo), so SR_d and D share signs, and roots with
their multiplicities; p = 1 is x = oo, where D has the sign of d_m.

The paper's near-0 and near-1 orders are plain tuple order on `counts` (N)
and on `f_tuple()` (F); the first index where two N-vectors differ is the
near-zero witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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


def _istrip(p: list[int]) -> list[int]:
    q = p[:]
    while q and q[-1] == 0:
        q.pop()
    return q


def _iprimitive(p: list[int]) -> list[int]:
    g = 0
    for v in p:
        g = gcd(g, abs(v))
    return [v // g for v in p] if g > 1 else p[:]


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """A positive multiple of rem(f, g) over the integers: each division step
    scales f by |lc(g)| before it cancels f's leading term."""
    f, lc = f[:], g[-1]
    while f and len(f) >= len(g):
        shift = len(f) - len(g)
        lead = f[-1] if lc > 0 else -f[-1]
        f = [c * abs(lc) for c in f]
        for i, gc in enumerate(g):
            f[i + shift] -= lead * gc
        f = _istrip(f)
    return f


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm chain of an integer polynomial f: f, f' and the negated
    remainders, down to gcd(f, f'), each a positive multiple of the textbook
    entry (which leaves every sign variation intact).  At a point where f
    does not vanish, its sign variations count the distinct real roots of f.
    A constant f has the zero polynomial [] as f', which counts no roots."""
    chain = [_iprimitive(f), _iprimitive(_istrip([i * c for i, c in enumerate(f)][1:]))]
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_iprimitive([-c for c in rem]))
    return chain


def _variations(values: Sequence[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _count_roots(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Distinct roots in the open p-interval (a, b); endpoints must not be roots."""
    va = _variations([_scaled_value(c, a.numerator, a.denominator) for c in chain])
    vb = _variations([_scaled_value(c, b.numerator, b.denominator) for c in chain])
    return va - vb


def _nonroot_split(f: list[int], d: int, a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside (a, b) where f does not vanish, when f has
    fewer than d distinct roots."""
    for k in range(1, 2 * d + 3):
        x = a + (b - a) * Fraction(k, 2 * d + 3)
        if _scaled_value(f, x.numerator, x.denominator):
            return x
    raise AssertionError("no non-root split point found")


def _isolate(f: list[int], chain: list[list[int]], count: int) -> list[tuple[Fraction, Fraction]]:
    """Ascending p-intervals inside (0, 1) that each hold one of the `count`
    distinct roots there of f, read in x = p/(1-p), and end neither at 0 nor
    at 1.  The splits run from a work list, not by recursion: a root near 1
    can take thousands of splits to keep its interval off 1.

    The grid leaves out f's root x = -1 (p = oo), if any, so every split and
    witness is the one that SR_f expanded in powers of p would give."""
    # chain[-1] is gcd(f, f'): f has len(f) - len(chain[-1]) distinct complex
    # roots, x = -1 among them exactly when f(-1) = 0
    d = len(f) - len(chain[-1]) + 1 - (sum(f[::2]) == sum(f[1::2]))
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


# Refutation points k/q, in the order their witnesses are reported.
_PRESAMPLE = [(k, 64) for k in range(1, 64)] + [(1, 1024), (1023, 1024)]


def _scaled_value(d: Sequence[int], k: int, q: int) -> int:
    """q^m times sum_i d_i p^i (1-p)^(m-i) at p = k/q (homogeneous Horner):
    (q-k)^m D(k/(q-k)) for D(x) = sum_i d_i x^i when k < q, and q^m d_m at 1."""
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
    vector d: Sturm isolation of the real roots in (0, 1) of SR_d, with exact
    sign evaluations between consecutive roots.

    A zero first or last count is a factor p or (1 - p), positive on (0, 1),
    so the zero end counts are stripped first.  The stripped vector e is read
    in x = p/(1-p), with no root at x = 0 or x = oo; the split grid leaves out
    its root x = -1, if any (see `_isolate`)."""
    nonzero = [i for i, c in enumerate(d) if c]
    e = d[nonzero[0] : nonzero[-1] + 1] if nonzero else []
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
        if _scaled_value(e, x.numerator, x.denominator) < 0:
            return DominanceVerdict(False, x)
    return DominanceVerdict(True, None)
