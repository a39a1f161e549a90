"""Signatures: count vectors as polynomials, evaluation, the near-0 and near-1
tuple orders, exact dominance of count vectors on the unit interval."""

import hashlib
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import cycle_n, relabel_two_terminal, sr_value_by_power_basis as sr_value
from splitrel import signature
from splitrel.counting import CoefficientVector, split_coefficients, two_tree_count
from splitrel.families import two_terminal_balloon, variant
from splitrel.graphs import SimpleGraph, TwoTerminalGraph
from splitrel.signature import (
    DominanceVerdict,
    SplitSignature,
    _sturm_dominance,
    dominates_on_unit_interval,
    evaluate,
    sr_polynomial,
)


def sig_of(g: TwoTerminalGraph) -> SplitSignature:
    return split_coefficients(g)


def first_difference(xs, ys):
    """The first index where two equal-length vectors differ (None if equal)."""
    return next((i for i, (a, b) in enumerate(zip(xs, ys)) if a != b), None)


def test_signature_is_the_count_vector():
    # one count-vector class: a signature is what split_coefficients returns
    assert SplitSignature is CoefficientVector
    sig = split_coefficients(TwoTerminalGraph(cycle_n(3), 0, 1))
    assert sig == SplitSignature(3, 3, (0, 2, 0, 0))
    assert sig.to_json_dict() == {"m": 3, "counts": ["0", "2", "0", "0"]}


def test_f_view():
    sig = SplitSignature(3, 3, (0, 2, 0, 0))
    assert [sig.f_value(i) for i in range(4)] == [0, 0, 2, 0]
    assert sig.f_tuple() == (0, 0, 2, 0)
    assert sig.f_value(0) == 0  # full graph is connected, never split


SPOT_POINTS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(1)]


def test_sr_polynomial_triangle():
    sig = SplitSignature(3, 3, (0, 2, 0, 0))
    # 2 p (1-p)^2 = 2p - 4p^2 + 2p^3
    assert sr_polynomial(sig) == (0, 2, 0, 0)
    for p in SPOT_POINTS:
        assert evaluate(sig.counts, p) == sr_value(sig.counts, p) == 2 * p - 4 * p**2 + 2 * p**3


def test_sr_polynomial_square():
    sig = SplitSignature(4, 4, (0, 0, 4, 0, 0))
    # 4 p^2 (1-p)^2 = 4p^2 - 8p^3 + 4p^4
    assert sr_polynomial(sig) == (0, 0, 4, 0, 0)
    for p in SPOT_POINTS:
        assert evaluate(sig.counts, p) == sr_value(sig.counts, p) == 4 * p**2 - 8 * p**3 + 4 * p**4


def test_sr_polynomial_zero():
    sig = SplitSignature(3, 3, (0, 0, 0, 0))
    assert sr_polynomial(sig) == (0, 0, 0, 0)
    for p in SPOT_POINTS:
        assert evaluate(sig.counts, p) == sr_value(sig.counts, p) == 0


def test_evaluate():
    # 2p(1-p)^2 = 2p - 4p^2 + 2p^3
    assert evaluate((0, 2, 0, 0), Fraction(1, 2)) == Fraction(1, 4)
    assert evaluate((0, 2, 0, 0), "1/2") == Fraction(1, 4)
    sig = sig_of(TwoTerminalGraph(cycle_n(4), 0, 2))
    sr = sr_polynomial(sig)
    assert evaluate(sr, 0) == 0
    assert evaluate(sr, 1) == 0


@given(
    st.integers(0, 12).flatmap(
        lambda m: st.lists(st.integers(-10**6, 10**6), min_size=m + 1, max_size=m + 1)
    ),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
)
def test_evaluate_matches_power_basis(counts, p):
    for x in (p, 0, 1):
        assert evaluate(counts, x) == sr_value(counts, x)


def test_compare_near_zero():
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    g44 = sig_of(TwoTerminalGraph(paw, 3, 1))
    c4 = sig_of(TwoTerminalGraph(cycle_n(4), 0, 2))
    assert g44.counts > c4.counts
    assert first_difference(g44.counts, g44.counts) is None
    assert first_difference(g44.counts, c4.counts) == 2


def test_compare_near_zero_variant_beats_balloon_at_n_minus_2():
    g = sig_of(two_terminal_balloon(7, 8))
    h = sig_of(variant(2, 7, 8))
    assert h.counts > g.counts and first_difference(h.counts, g.counts) == 5


def test_compare_near_one():
    # the balloon's bridge count leads the F-tuple
    g915 = sig_of(two_terminal_balloon(9, 15))
    rival = sig_of(variant(0, 9, 15))  # one bridge fewer
    assert g915.f_tuple() > rival.f_tuple()
    assert first_difference(g915.f_tuple(), rival.f_tuple()) == 1
    assert g915.f_value(1) == 3


def test_compare_near_one_paw_terminal_choice():
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    adjacent = sig_of(TwoTerminalGraph(paw, 3, 0))
    far = sig_of(TwoTerminalGraph(paw, 3, 1))
    assert adjacent.f_tuple()[1:3] == (1, 3)
    assert far.f_tuple()[1:3] == (1, 5)
    assert adjacent.f_tuple() < far.f_tuple()


def test_split_equivalent():
    g = TwoTerminalGraph(cycle_n(4), 0, 2)
    perm = [2, 3, 0, 1]
    assert sig_of(g).counts == sig_of(relabel_two_terminal(g, perm)).counts
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    assert sig_of(TwoTerminalGraph(paw, 3, 1)).counts != sig_of(g).counts


def sturm_only(a, b):
    """The complete path alone, on the integer difference vector."""
    return _sturm_dominance([x - y for x, y in zip(a, b)])


def test_dominance_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        dominates_on_unit_interval((0, 2, 0, 0), (0, 0, 4, 0, 0))


def test_dominance_equal_polynomials():
    counts = (0, 2, 0, 0)
    assert dominates_on_unit_interval(counts, counts).dominates


def test_dominance_crossing_example():
    a = (0, 0, 4, 0, 0)  # 4p^2(1-p)^2
    b = (0, 2, 2, 0, 0)  # 2p(1-p)^2, lifted to m = 4
    verdict = dominates_on_unit_interval(a, b)
    assert not verdict.dominates
    w = verdict.witness
    assert 0 < w < Fraction(1, 2)
    assert sr_value(a, w) < sr_value(b, w)
    # spot value from the definition: at 1/4 the low-degree polynomial wins
    assert sr_value(a, Fraction(1, 4)) == Fraction(9, 64)
    assert sr_value(b, Fraction(1, 4)) == Fraction(9, 32)


def test_dominance_fast_and_complete_paths_agree():
    rng = random.Random(77)
    pairs = []
    for _ in range(40):
        m = rng.randint(1, 8)
        pairs.append(tuple([rng.randint(-6, 6) for _ in range(m + 1)] for _ in "ab"))
    # include a tangent (touching, still dominating) pair: (2x - 1)^2 >= 0
    touch, zero = (1, -2, 1), (0, 0, 0)
    pairs += [(touch, zero), (zero, touch)]
    for a, b in pairs:
        fast = dominates_on_unit_interval(a, b)
        slow = sturm_only(a, b)
        assert fast.dominates == slow.dominates
        for v in (fast, slow):
            if not v.dominates:
                assert sr_value(a, v.witness) < sr_value(b, v.witness)


def test_dominance_touching_interior_root(monkeypatch):
    # nonnegative with a double root inside (0,1): dominates with equality point
    touch, zero = (1, -4, 4), (0, 0, 0)  # (3x - 1)^2
    assert sturm_only(touch, zero).dominates
    calls = []

    def recording(d):
        calls.append(d)
        return _sturm_dominance(d)

    monkeypatch.setattr(signature, "_sturm_dominance", recording)
    assert dominates_on_unit_interval(touch, zero).dominates
    assert len(calls) == 1  # no presample refutes it, no certificate holds
    v = dominates_on_unit_interval(zero, touch)
    assert not v.dominates
    # -2(4 - 13x)^2: the Sturm path isolates the double root on the chain of
    # the expansion itself, and its crossing witness is pinned
    v = sturm_only((-32, 144, -162), zero)
    assert (v.dominates, v.witness) == (False, Fraction(13, 49))


def test_sturm_runs_on_the_stripped_count_vector(monkeypatch):
    # the chain is built on the count vector with its zero end counts
    # stripped, read as a polynomial in x = p/(1-p): no second expansion
    args, sturm_chain = [], signature._sturm_chain

    def recording(f):
        args.append(list(f))
        return sturm_chain(f)

    monkeypatch.setattr(signature, "_sturm_chain", recording)
    cases = {
        (-32, 144, -162): (False, Fraction(13, 49)),
        (0, 0, 1, -4, 4, 0): (True, None),
        (0, -2, 7, 0): (False, Fraction(1, 7)),
        # a single nonzero count: SR is a constant sign times p^i (1-p)^(m-i)
        (0, 3, 0): (True, None),
        (0, -3, 0): (False, Fraction(1, 2)),
        # a constant SR, and its x-polynomials 1 + x and -(1 + x)^2 have the root
    # x = -1; the verdicts and witnesses are the ones the p-expansion gave
        (1, 1): (True, None),
        (-1, -2, -1): (False, Fraction(1, 2)),
    }
    for d, pinned in cases.items():
        v = _sturm_dominance(list(d))
        assert (v.dominates, v.witness) == pinned, d
        nonzero = [i for i, c in enumerate(d) if c]
        assert args.pop() == list(d[nonzero[0] : nonzero[-1] + 1])
        assert not args


def test_sturm_isolates_a_root_near_one():
    # the root lies within 10^-100 of 1, so keeping its isolating interval off
    # 1 takes about 1,500 splits
    d = [10**100, -1]
    v = _sturm_dominance(d)
    assert not v.dominates
    assert 1 - Fraction(1, 10**99) < v.witness < 1
    assert sr_value(d, v.witness) < 0


def _convolve(xs, ys):
    """Count vector of a product: x^i (1-x)^(m1-i) * x^j (1-x)^(m2-j)
    = x^(i+j) (1-x)^(m1+m2-i-j)."""
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out


def _sturm_pin_vectors():
    """Seeded difference vectors for the Sturm path: random count vectors with
    zero end counts, vectors of +-prod (q x - k) with squared factors and x or
    (1 - x) factors, the all-zero vector and the pinned double-root case."""
    rng = random.Random(2121)
    out = []
    for _ in range(1000):
        d = [rng.randint(-20, 20) for _ in range(rng.randint(2, 13))]
        if rng.random() < 0.3:
            d[0] = 0
        if rng.random() < 0.3:
            d[-1] = 0
        out.append(d)
    for _ in range(1000):
        c = [rng.choice((-1, 1))]  # power basis, lowest degree first
        for _ in range(rng.randint(1, 4)):
            q = rng.randint(2, 12)
            factor = [-rng.randint(1, q - 1), q]
            c = _convolve(c, factor)
            if rng.random() < 0.5:
                c = _convolve(c, factor)
        if rng.random() < 0.3:
            c = _convolve(c, [0, 1])
        if rng.random() < 0.3:
            c = _convolve(c, [1, -1])
        # x^j = sum_i C(m - j, i - j) x^i (1 - x)^(m - i), so
        # d_i = C(m, i) sum_j c_j C(i, j) / C(m, j) in integers
        m = len(c) - 1 + rng.randint(0, 2)
        out.append([sum(cj * comb(m - j, i - j) for j, cj in enumerate(c[: i + 1])) for i in range(m + 1)])
    return out + [[0, 0, 0, 0], [-32, 144, -162]]


def test_sturm_dominance_pinned():
    # the complete path alone, on vectors with repeated interior roots and
    # roots at 0 and 1; the digest was computed before the path was rewritten
    verdicts = [_sturm_dominance(d) for d in _sturm_pin_vectors()]
    assert len(verdicts) == 2002
    pairs = [(v.dominates, str(v.witness)) for v in verdicts]
    assert pairs[-2:] == [(True, "None"), (False, "13/49")]
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == "b4aadd4250ec789f25540927a8686e0d572a1e07f49530fdcf8e4b1def13d1b8"


@st.composite
def difference_vectors(draw):
    """Integer count vectors d with m <= 12.  Half of them carry a squared
    linear factor (u(1-x) - vx)^2 with its double root u/(u+v) inside (0, 1);
    with a nonnegative cofactor the presample cannot refute those, and the
    root rules out nonnegative coefficients, so the Sturm path runs."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 12))
        return draw(st.lists(st.integers(-50, 50), min_size=m + 1, max_size=m + 1))
    u, v = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cofactor = draw(st.lists(st.integers(-2, 20), min_size=1, max_size=11))
    d = _convolve((u * u, -2 * u * v, v * v), cofactor)
    # optionally scale up and subtract the constant 1, which opens a dip
    # below zero around the double root too narrow for the presample grid
    if draw(st.booleans()):
        d = [10**6 * c - comb(len(d) - 1, i) for i, c in enumerate(d)]
    return d


@given(difference_vectors())
def test_dominance_matches_sturm_only(d):
    zero = [0] * len(d)
    fast = dominates_on_unit_interval(d, zero)
    slow = sturm_only(d, zero)
    assert fast.dominates == slow.dominates
    for v in (fast, slow):
        if not v.dominates:
            assert sr_value(d, v.witness) < 0


@given(st.lists(st.integers(0, 50), min_size=1, max_size=14), st.data())
def test_coefficientwise_certificate_matches_sturm(d, data):
    # a - b >= 0 in every count dominates before the Sturm path; Sturm agrees
    b = data.draw(st.lists(st.integers(0, 10**6), min_size=len(d), max_size=len(d)))
    a = [x + y for x, y in zip(b, d)]

    def no_sturm(_):
        raise AssertionError("the Sturm path ran on a coefficientwise difference")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signature, "_sturm_dominance", no_sturm)
        assert dominates_on_unit_interval(a, b) == DominanceVerdict(True, None)
    assert _sturm_dominance(d) == DominanceVerdict(True, None)


def test_comparators_match_exact_evaluation_on_all_small_classes():
    """Lexicographic comparators agree with exact evaluation at 10^-12 from
    either endpoint, on every pair of every class with n <= 6."""
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


def _grid_refutes(a, b, denom=10**4) -> bool:
    """True iff SR_a - SR_b takes a negative value on the k/denom grid (exact
    signs of denom^m times the value)."""
    d = [x - y for x, y in zip(a, b)]
    for k in range(denom + 1):
        acc = 0
        dp = 1
        for c in reversed(d):
            acc = acc * k + c * dp
            dp *= denom - k
        if acc < 0:
            return True
    return False


def test_dominance_agrees_with_dense_sampling():
    """Sampling can only refute: wherever the grid finds a negative value the
    decision must be a crossing, and a dominance verdict admits no negative
    sample.  All pairs for n <= 4; candidate-vs-rival plus a seeded sample for
    n = 5, 6 (full n = 6 pair coverage is out of suite budget)."""
    from splitrel.enumeration import refine_chain

    rng = random.Random(404)
    pairs = []
    for n in (3, 4):
        for m in range(n, comb(n, 2) + 1):
            ledger = refine_chain(n, m)
            vecs = [s.counts for s in ledger.signatures]
            pairs += [(a, b) for a in vecs for b in vecs]
    for n in (5, 6):
        for m in range(n, comb(n, 2) + 1):
            ledger = refine_chain(n, m)
            vecs = [s.counts for s in ledger.signatures]
            cand = vecs[ledger.locally_most[0]]
            rivals = vecs if n == 5 else rng.sample(vecs, min(4, len(vecs)))
            pairs += [(cand, b) for b in rivals]
    assert len(pairs) > 100
    for a, b in pairs:
        verdict = dominates_on_unit_interval(a, b)
        refuted = _grid_refutes(a, b)
        if verdict.dominates:
            assert not refuted
        else:
            assert sr_value(a, verdict.witness) < sr_value(b, verdict.witness)


def test_near_zero_comparator_implies_small_p_advantage():
    # sampled version of the comparator/evaluation consistency checks
    rng = random.Random(5)
    from conftest import random_two_terminal

    eps = Fraction(1, 10**12)
    for _ in range(20):
        n = rng.randint(3, 5)
        m = rng.randint(n - 1, min(n + 2, comb(n, 2)))
        a = sig_of(random_two_terminal(rng, n, m))
        b = sig_of(random_two_terminal(rng, n, m))
        pa, pb = sr_polynomial(a), sr_polynomial(b)

        def diff(x):
            return evaluate(pa, x) - evaluate(pb, x)

        if a.counts > b.counts:
            assert diff(eps) > 0
        elif a.counts < b.counts:
            assert diff(eps) < 0
        else:
            assert diff(eps) == 0 == diff(1 - eps)
        if a.f_tuple() > b.f_tuple():
            assert diff(1 - eps) > 0
        elif a.f_tuple() < b.f_tuple():
            assert diff(1 - eps) < 0


def test_two_tree_advantage_wins_at_the_closed_form_witness():
    # the witness lemma behind the no-winner certificates: every N_i with
    # i < n - 2 is 0, so a larger N_{n-2} = two_tree_count beats any rival in
    # the class at p = 1/(2^(m+1)+1), where the tail sum C(m, i) r^i is small
    from conftest import random_two_terminal

    rng = random.Random(18)
    checked = 0
    while checked < 200:
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, comb(n, 2))
        g, h = sorted((random_two_terminal(rng, n, m) for _ in range(2)), key=two_tree_count)
        if two_tree_count(h) == two_tree_count(g):
            continue
        p = Fraction(1, 2 ** (m + 1) + 1)
        assert evaluate(sig_of(h).counts, p) > evaluate(sig_of(g).counts, p), (g, h)
        checked += 1
