"""Signature algebra: polynomials, comparators, Bernstein basis, exact
dominance on the unit interval."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import cycle_n
from splitrel.counting import split_coefficients
from splitrel.families import two_terminal_balloon, variant
from splitrel.graphs import SimpleGraph, TwoTerminalGraph, relabel_two_terminal
from splitrel.signature import (
    ExactPolynomial,
    Ordering,
    SplitSignature,
    bernstein_coefficients,
    bernstein_to_power,
    compare_near_one,
    compare_near_one_index,
    compare_near_zero,
    compare_near_zero_index,
    dominates_on_unit_interval,
    evaluate,
    split_equivalent,
    sr_polynomial,
    survival_polynomial,
)


def sig_of(g: TwoTerminalGraph) -> SplitSignature:
    return SplitSignature.from_vector(g.graph.n, split_coefficients(g))


def test_f_view():
    sig = SplitSignature(3, 3, (0, 2, 0, 0))
    assert [sig.f_value(i) for i in range(4)] == [0, 0, 2, 0]
    assert sig.f_tuple() == (0, 0, 2, 0)
    assert sig.f_value(0) == 0  # full graph is connected, never split


def test_sr_polynomial_triangle():
    sig = SplitSignature(3, 3, (0, 2, 0, 0))
    assert sr_polynomial(sig) == ExactPolynomial.make([0, 2, -4, 2])


def test_sr_polynomial_square():
    sig = SplitSignature(4, 4, (0, 0, 4, 0, 0))
    # 4 p^2 (1-p)^2
    assert sr_polynomial(sig) == ExactPolynomial.make([0, 0, 4, -8, 4])


def test_sr_polynomial_zero():
    assert sr_polynomial(SplitSignature(3, 3, (0, 0, 0, 0))).is_zero()


def test_evaluate():
    poly = ExactPolynomial.make([0, 2, -4, 2])
    assert evaluate(poly, Fraction(1, 2)) == Fraction(1, 4)
    sig = sig_of(TwoTerminalGraph(cycle_n(4), 0, 2))
    sr = sr_polynomial(sig)
    assert evaluate(sr, 0) == 0
    assert evaluate(sr, 1) == 0


def test_compare_near_zero():
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    g44 = sig_of(TwoTerminalGraph(paw, 3, 1))
    c4 = sig_of(TwoTerminalGraph(cycle_n(4), 0, 2))
    assert compare_near_zero(g44, c4) is Ordering.GREATER
    assert compare_near_zero(g44, g44) is Ordering.EQUAL
    order, idx = compare_near_zero_index(g44, c4)
    assert (order, idx) == (Ordering.GREATER, 2)


def test_compare_near_zero_variant_beats_balloon_at_n_minus_2():
    g = sig_of(two_terminal_balloon(7, 8))
    h = sig_of(variant(2, 7, 8))
    order, idx = compare_near_zero_index(h, g)
    assert order is Ordering.GREATER and idx == 5


def test_compare_near_one():
    # the balloon's bridge count leads the F-tuple
    g915 = sig_of(two_terminal_balloon(9, 15))
    rival = sig_of(variant(0, 9, 15))  # one bridge fewer
    order, idx = compare_near_one_index(g915, rival)
    assert order is Ordering.GREATER and idx == 1
    assert g915.f_value(1) == 3


def test_compare_near_one_paw_terminal_choice():
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    adjacent = sig_of(TwoTerminalGraph(paw, 3, 0))
    far = sig_of(TwoTerminalGraph(paw, 3, 1))
    assert adjacent.f_tuple()[1:3] == (1, 3)
    assert far.f_tuple()[1:3] == (1, 5)
    assert compare_near_one(adjacent, far) is Ordering.LESS


def test_split_equivalent():
    rng = random.Random(1)
    g = TwoTerminalGraph(cycle_n(4), 0, 2)
    perm = [2, 3, 0, 1]
    assert split_equivalent(sig_of(g), sig_of(relabel_two_terminal(g, perm)))
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    assert not split_equivalent(sig_of(TwoTerminalGraph(paw, 3, 1)), sig_of(g))


def test_class_mismatch_rejected():
    a = SplitSignature(3, 3, (0, 2, 0, 0))
    b = SplitSignature(4, 4, (0, 0, 4, 0, 0))
    with pytest.raises(ValueError):
        compare_near_zero(a, b)


def test_bernstein_basics():
    one = ExactPolynomial.make([1])
    for d in (1, 3, 6):
        assert bernstein_coefficients(one, d) == [Fraction(1)] * (d + 1)
    x = ExactPolynomial.make([0, 1])
    assert bernstein_coefficients(x, 1) == [Fraction(0), Fraction(1)]
    k3 = ExactPolynomial.make([0, 2, -4, 2])
    assert bernstein_coefficients(k3, 3) == [
        Fraction(0),
        Fraction(2, 3),
        Fraction(0),
        Fraction(0),
    ]
    with pytest.raises(ValueError):
        bernstein_coefficients(k3, 2)


def test_bernstein_round_trip_random():
    rng = random.Random(10)
    for _ in range(20):
        deg = rng.randint(0, 24)
        coeffs = [
            Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(deg + 1)
        ]
        poly = ExactPolynomial.make(coeffs)
        d = poly.degree + rng.randint(0, 5) if poly.degree >= 0 else 3
        back = bernstein_to_power(bernstein_coefficients(poly, d), d)
        assert back == poly


def test_dominance_equal_polynomials():
    poly = survival_polynomial((0, 2, 0, 0), 3)
    assert dominates_on_unit_interval(poly, poly).dominates


def test_dominance_crossing_example():
    a = survival_polynomial((0, 0, 4, 0, 0), 4)  # 4p^2(1-p)^2
    b = survival_polynomial((0, 2, 0, 0), 3)  # 2p(1-p)^2
    verdict = dominates_on_unit_interval(a, b)
    assert not verdict.dominates
    w = verdict.witness
    assert 0 < w < Fraction(1, 2)
    assert evaluate(a, w) < evaluate(b, w)
    # spot value from the definition: at 1/4 the low-degree polynomial wins
    assert evaluate(a, Fraction(1, 4)) == Fraction(9, 64)
    assert evaluate(b, Fraction(1, 4)) == Fraction(9, 32)


def test_dominance_fast_and_complete_paths_agree():
    rng = random.Random(77)
    polys = []
    for _ in range(12):
        deg = rng.randint(1, 8)
        polys.append(
            ExactPolynomial.make(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
            )
        )
    # include a tangent (touching, still dominating) pair: (x - 1/2)^2 >= 0
    touch = ExactPolynomial.make([Fraction(1, 4), -1, 1])
    pairs = [(a, b) for a in polys for b in polys][:40] + [
        (touch, ExactPolynomial.zero()),
        (ExactPolynomial.zero(), touch),
    ]
    for a, b in pairs:
        fast = dominates_on_unit_interval(a, b)
        slow = dominates_on_unit_interval(a, b, use_fast_paths=False)
        assert fast.dominates == slow.dominates
        for v in (fast, slow):
            if not v.dominates:
                assert evaluate(a, v.witness) < evaluate(b, v.witness)


def test_dominance_touching_interior_root():
    # nonnegative with a double root inside (0,1): dominates with equality point
    touch = ExactPolynomial.make([Fraction(1, 9), Fraction(-2, 3), 1])  # (x - 1/3)^2
    assert dominates_on_unit_interval(touch, ExactPolynomial.zero()).dominates
    assert dominates_on_unit_interval(
        touch, ExactPolynomial.zero(), use_fast_paths=False
    ).dominates
    flipped = ExactPolynomial.zero() - touch
    v = dominates_on_unit_interval(flipped, ExactPolynomial.zero())
    assert not v.dominates


def test_polynomial_json_round_trip():
    poly = ExactPolynomial.make([Fraction(1, 3), 0, Fraction(-7, 2)])
    assert ExactPolynomial.from_json_list(poly.to_json_list()) == poly


def test_comparators_match_exact_evaluation_on_all_small_classes():
    """Lexicographic comparators agree with exact evaluation at 10^-12 from
    either endpoint, on every pair of every class with n <= 6."""
    from math import comb

    from splitrel.enumeration import refine_chain

    eps = Fraction(1, 10**12)
    for n in range(3, 7):
        lo = max(n - 1, 2)
        for m in range(lo, comb(n, 2) + 1):
            ledger = refine_chain(n, m)
            polys = [sr_polynomial(s) for s in ledger.signatures]
            near0 = [evaluate(p, eps) for p in polys]
            near1 = [evaluate(p, 1 - eps) for p in polys]
            n_tuples = [s.counts for s in ledger.signatures]
            f_tuples = [s.f_tuple() for s in ledger.signatures]
            for i in range(len(polys)):
                for j in range(i + 1, len(polys)):
                    if n_tuples[i] == n_tuples[j]:
                        assert polys[i] == polys[j]
                        continue
                    assert (n_tuples[i] > n_tuples[j]) == (near0[i] > near0[j])
                    assert (f_tuples[i] > f_tuples[j]) == (near1[i] > near1[j])


def _grid_refutes(d, denom=10**4) -> bool:
    """True iff d takes a negative value on the k/denom grid (exact signs)."""
    if d.is_zero():
        return False
    den_lcm = 1
    for c in d.coefficients:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in d.coefficients]
    for k in range(denom + 1):
        acc = 0
        dp = 1
        for c in reversed(ints):
            acc = acc * k + c * dp
            dp *= denom
        if acc < 0:
            return True
    return False


def test_dominance_agrees_with_dense_sampling():
    """Sampling can only refute: wherever the grid finds a negative value the
    decision must be a crossing, and a dominance verdict admits no negative
    sample.  All pairs for n <= 4; candidate-vs-rival plus a seeded sample for
    n = 5, 6 (full n = 6 pair coverage is out of suite budget)."""
    from math import comb

    from splitrel.enumeration import refine_chain

    rng = random.Random(404)
    pairs = []
    for n in (3, 4):
        for m in range(n, comb(n, 2) + 1):
            ledger = refine_chain(n, m)
            polys = [sr_polynomial(s) for s in ledger.signatures]
            pairs += [(a, b) for a in polys for b in polys]
    for n in (5, 6):
        for m in range(n, comb(n, 2) + 1):
            ledger = refine_chain(n, m)
            polys = [sr_polynomial(s) for s in ledger.signatures]
            cand = polys[ledger.locally_most[0]]
            rivals = polys if n == 5 else rng.sample(polys, min(4, len(polys)))
            pairs += [(cand, b) for b in rivals]
    assert len(pairs) > 100
    for a, b in pairs:
        verdict = dominates_on_unit_interval(a, b)
        refuted = _grid_refutes(a - b)
        if verdict.dominates:
            assert not refuted
        else:
            assert evaluate(a, verdict.witness) < evaluate(b, verdict.witness)


def test_near_zero_comparator_implies_small_p_advantage():
    # sampled version of the comparator/evaluation consistency checks
    rng = random.Random(5)
    from conftest import random_two_terminal

    from math import comb

    eps = Fraction(1, 10**12)
    for _ in range(20):
        n = rng.randint(3, 5)
        m = rng.randint(n - 1, min(n + 2, comb(n, 2)))
        a = sig_of(random_two_terminal(rng, n, m))
        b = sig_of(random_two_terminal(rng, n, m))
        diff = sr_polynomial(a) - sr_polynomial(b)
        order = compare_near_zero(a, b)
        if order is Ordering.GREATER:
            assert evaluate(diff, eps) > 0
        elif order is Ordering.LESS:
            assert evaluate(diff, eps) < 0
        else:
            assert split_equivalent(a, b)
        order1 = compare_near_one(a, b)
        if order1 is Ordering.GREATER:
            assert evaluate(diff, 1 - eps) > 0
        elif order1 is Ordering.LESS:
            assert evaluate(diff, 1 - eps) < 0
