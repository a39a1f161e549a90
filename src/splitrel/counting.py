"""Exact counting machinery: split and connected coefficient vectors by a
recurrence over vertex subsets, spanning-tree and two-disjoint-trees counts
as integer-exact Laplacian minors (one pivot-free determinant each, since a
Laplacian minor is positive semidefinite; independent of the recurrence),
the two-disjoint-trees counts of every terminal pair from one Gauss-Jordan
pass, and a seed-stable Monte Carlo estimator.  It compares uniform bits with
p's binary expansion (no rejection).

Everything on the exact side is integer/rational arithmetic only.  The
coefficient vectors have one route, guarded to n <= COEFF_GUARD_N = 16; the
tests check it against an exhaustive sweep of all 2^m edge subsets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .graphs import Edge, GuardError, SimpleGraph, TwoTerminalGraph, adjacency_masks


@dataclass(frozen=True)
class CoefficientVector:
    """counts[i] = number of qualifying spanning subgraphs with i surviving
    edges, for a graph with n vertices and m edges.  For split subgraphs this
    is the signature N_0..N_m; F_i = N_{m-i} is the failed-edge view."""

    n: int
    m: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.m + 1:
            raise ValueError("counts must have length m+1")

    def f_value(self, i: int) -> int:
        """F_i: subgraphs with i failed edges (= N_{m-i})."""
        return self.counts[self.m - i]

    def f_tuple(self) -> tuple[int, ...]:
        return tuple(reversed(self.counts))

    def to_json_dict(self) -> dict:
        return {"m": self.m, "counts": [str(c) for c in self.counts]}


def _unpack(packed: int, m: int) -> tuple[int, ...]:
    """The m + 1 counts packed m + 1 bits each, the count of size 0 lowest."""
    width = m + 1
    digit, out = (1 << width) - 1, []
    for _ in range(width):  # shifting what is left keeps each shift short
        out.append(packed & digit)
        packed >>= width
    return tuple(out)


@dataclass(frozen=True)
class SubsetClassification:
    """Per-graph tally of all 2^m edge subsets.

    `connected[i]` counts subsets of size i whose spanning subgraph is
    connected.  `packed_sides[S]` counts the subsets with exactly two
    components where S is the vertex bitmask of the component containing
    vertex 0, packed m + 1 bits per size i (coefficient i at bit i(m + 1));
    a side no subset splits off is absent.  `split_sides` unpacks them.
    """

    n: int
    m: int
    connected: tuple[int, ...]
    packed_sides: dict[int, int]

    @property
    def split_sides(self) -> dict[int, tuple[int, ...]]:
        return {side: _unpack(c, self.m) for side, c in self.packed_sides.items()}

    @cached_property
    def _superset_sums(self) -> list[int]:
        """sums[X] adds the packed sides that hold vertex 0 and every vertex
        of X, a mask over vertices 1..n-1 shifted down by one."""
        size = 1 << (self.n - 1)
        sums = [0] * size
        for side, c in self.packed_sides.items():
            sums[side >> 1] = c
        bit = 1
        while bit < size:
            # every x without `bit` gains sums[x + bit]; those x make `bit`
            # strided slices or size / step blocks, whichever are fewer
            step = 2 * bit
            if bit * step <= size:
                for j in range(bit):
                    sums[j::step] = map(add, sums[j::step], sums[j + bit :: step])
            else:
                for j in range(0, size, step):
                    sums[j : j + bit] = map(add, sums[j : j + bit], sums[j + bit : j + step])
            bit = step
        return sums

    def split_counts(self, s: int, t: int) -> tuple[int, ...]:
        """Split-subgraph counts for the terminal pair {s, t}: the packed sum
        over the sides that hold exactly one of s and t, read from the
        superset sums as A(s) + A(t) - 2 B(s, t), where A(v) sums the sides
        that hold v and B(s, t) those that hold both.  The sum is exact over
        the integers, and each of its coefficients counts distinct edge
        subsets of one size, so it unpacks with no carry."""
        sums = self._superset_sums
        a, b = (1 << s) >> 1, (1 << t) >> 1  # vertex 0 is in every side
        return _unpack(sums[a] + sums[b] - 2 * sums[a | b], self.m)


COEFF_GUARD_N = 16


def check_coeff_guard(n: int) -> None:
    """Refuse a subset classification on more than COEFF_GUARD_N vertices."""
    if n > COEFF_GUARD_N:
        raise GuardError(
            "subset classification is meant for desk-scale graphs "
            f"(n <= {COEFF_GUARD_N}), got n={n}"
        )


def classify_subsets(g: SimpleGraph) -> SubsetClassification:
    """Classify every edge subset of g by component structure.

    Buzacott's recurrence over vertex subsets, exponential in n rather than
    in m.  For a vertex set S with e(S) induced edges, all[S][k] = C(e(S), k)
    counts the k-edge subsets of G[S], and conn[S] counts the connected
    spanning ones.  Every other subset of G[S] has a component T that holds
    min(S), is a proper subset of S, is connected on its own, fails every
    edge between T and S - T, and leaves S - T arbitrary, so

        conn[S] = all[S] - sum over such T of conn[T] * all[S - T]

    where * convolves over surviving-edge counts.  It runs in push form: the
    sets are taken in increasing order, so every such T comes before S, and
    each T with conn[T] nonzero (G[T] connected) adds conn[T] * all[U] into
    T + U for every nonempty U of vertices above min(T) and outside T.  A
    set S whose G[S] is disconnected then costs one subtraction.  A split
    with side S (the component of vertex 0) is conn[S] * conn[V - S].

    A vector of counts is packed into one integer, `width` bits per
    coefficient, so that * is integer multiplication.  Every packed
    coefficient counts distinct edge subsets of size k, at most
    C(m, k) < 2^width, so no product, sum or difference carries between
    coefficients.
    """
    n, m = g.n, g.m
    check_coeff_guard(n)
    width = m + 1
    binomial = [1]  # binomial[e] packs C(e, 0..e), that is (1 + x)^e at x = 2^width
    for _ in range(m):
        binomial.append(binomial[-1] * ((1 << width) + 1))

    adj = adjacency_masks(n, g.edges)
    full = (1 << n) - 1
    induced = [0]  # induced[S] = e(S); the sets holding v come after those below v
    for row in adj:
        induced += [e + (row & S).bit_count() for S, e in enumerate(induced)]
    every = [binomial[e] for e in induced]  # every[S] = all[S], packed
    conn = [0] * (full + 1)
    for T in range(1, full + 1):
        c = every[T] - conn[T]  # conn[T] held the pushed sum until now
        conn[T] = c
        if not c:
            continue
        low = T & -T
        free = full ^ (T | (low << 1) - 1)  # vertices above min(T), outside T
        U = free
        while U:
            conn[T | U] += c * every[U]
            U = (U - 1) & free

    sides = {
        S: conn[S] * conn[full ^ S] for S in range(1, full, 2) if conn[S] and conn[full ^ S]
    }
    return SubsetClassification(n, m, _unpack(conn[full], m), sides)


def split_coefficients(g: TwoTerminalGraph) -> CoefficientVector:
    """N_i(g): split subgraphs with i surviving edges, by subset classification.

    Precondition: g valid and connected.
    """
    cls = classify_subsets(g.graph)
    return CoefficientVector(g.graph.n, g.graph.m, cls.split_counts(g.s, g.t))


def connected_coefficients(g: SimpleGraph) -> CoefficientVector:
    """Connected spanning subgraph counts by surviving-edge count."""
    cls = classify_subsets(g)
    return CoefficientVector(g.n, g.m, cls.connected)


# ---------------------------------------------------------------------------
# spanning trees

def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant of a symmetric positive semidefinite integer matrix
    (fraction-free elimination, no pivoting).

    Every caller passes a Laplacian minor, which is PSD.  Elimination keeps
    the trailing block PSD, and a PSD matrix with a zero diagonal entry has
    that whole row zero, so a zero pivot means the determinant is 0.
    """
    size = len(mat)
    if size == 0:
        return 1
    m = [row[:] for row in mat]
    prev = 1
    for k in range(size - 1):
        pivot = m[k][k]
        if pivot == 0:
            return 0
        row_k = m[k]
        for i in range(k + 1, size):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return m[size - 1][size - 1]


def _laplacian_minor(n: int, edges: Iterable[Edge], drop: Sequence[int]) -> int:
    """Determinant of the Laplacian of the multigraph on 0..n-1 (a repeated
    pair is a parallel edge) with the rows and columns of `drop` removed.

    By the all-minors matrix-tree theorem this counts the spanning forests
    with one tree per dropped vertex, each tree holding exactly one of them.
    """
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    keep = [v for v in range(n) if v not in drop]
    return _bareiss_det([[lap[i][j] for j in keep] for i in keep])


def spanning_tree_count(g: SimpleGraph) -> int:
    """t(G), the Laplacian minor without vertex 0.

    Returns 0 for disconnected graphs and 1 for the single vertex.
    """
    return _laplacian_minor(g.n, g.edges, (0,))


def two_tree_count(g: TwoTerminalGraph) -> int:
    """Split subgraphs consisting of two disjoint trees: the spanning forests
    with one tree at s and one at t, the Laplacian minor without s and t
    (independent of subset classification).

    Equals split_coefficients(g).counts[n-2].
    """
    return _laplacian_minor(g.graph.n, g.graph.edges, (g.s, g.t))


def two_tree_counts(g: SimpleGraph) -> dict[tuple[int, int], int]:
    """two_tree_count for every terminal pair s < t of a connected g, from
    one fraction-free Gauss-Jordan pass over [L_0 | I], where L_0 is the
    Laplacian without vertex 0.

    The pass ends at [tau I | M] with tau = det L_0 and M = adj L_0.  A
    minor of L_0 is a cofactor, so N(0, t) = M_tt, and tau times the
    effective resistance gives N(s, t) = M_ss + M_tt - 2 M_st.  Each step
    divides exactly by the previous pivot (Bareiss); L_0 of a connected
    graph is positive definite, so every pivot is a positive leading
    principal minor and none needs pivoting.
    """
    n, size = g.n, g.n - 1
    adj = adjacency_masks(n, g.edges)
    rows = [[-(adj[u] >> v & 1) for v in range(1, n)] + [0] * size for u in range(1, n)]
    for k, row in enumerate(rows):
        row[k] = adj[k + 1].bit_count()
    prev = 1
    for k, row_k in enumerate(rows):
        pivot = row_k[k]
        if pivot == 0:
            raise ValueError("two_tree_counts needs a connected graph")
        # Column size + j of I stays 0 outside row j until step j, where its
        # 1 has been scaled to the previous pivot; so step k touches only the
        # columns k + 1 .. size + k.
        row_k[size + k] = prev
        stop = size + k + 1
        tail = row_k[k + 1 : stop]
        for i, row_i in enumerate(rows):
            if i != k:
                lead = row_i[k]
                row_i[k + 1 : stop] = [
                    (x * pivot - lead * y) // prev for x, y in zip(row_i[k + 1 : stop], tail)
                ]
        prev = pivot
    cof = [row[size:] for row in rows]  # M, indexed from vertex 1
    out = {}
    for t in range(1, n):
        out[0, t] = cof[t - 1][t - 1]
        for s in range(1, t):
            out[s, t] = cof[s - 1][s - 1] + cof[t - 1][t - 1] - 2 * cof[s - 1][t - 1]
    return out


# ---------------------------------------------------------------------------
# Monte Carlo estimator

_MC_BLOCK = 65536


@dataclass(frozen=True)
class RandomSource:
    """Deterministic pseudorandom stream for the estimator.

    Backed by Python's Mersenne Twister (`random.Random`), whose seeded
    stream is stable across releases.  Trials are consumed in fixed blocks of
    65536; block j draws from its own `random.Random((seed << 64) | j)`, and
    its T <= 65536 trials are the T lanes (bits) of big integers.  A survival
    flag with exact rational probability p = a/b compares a uniform U in
    [0, 1) with p: lane i reads bit i of successive getrandbits(T) planes as
    U's binary digits, most significant first, and the edge survives in lane
    i iff U < p.  Edge by edge, in edge order, the block draws one plane per
    digit of p's binary expansion (long division of a by b) until no lane
    still equals p or the expansion ends; a lane equal to p where it ends has
    U >= p.  So p = 0 and p = 1 draw nothing, and a dyadic p = a/2^k draws k
    planes unless every lane leaves the tie sooner, which a block of T lanes
    does with probability (1 - 2^(1-k))^T per edge.  No floating point enters
    the sampling.
    """

    seed: int

    def __post_init__(self) -> None:
        # a negative seed would alias its absolute value in random.Random
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def block_seed(self, block: int) -> int:
        return (int(self.seed) << 64) | block


def _split_lanes(
    n: int, edges: tuple[Edge, ...], s: int, t: int, masks: list[int], lanes: int
) -> int:
    """Number of lanes (set bits of `lanes`) in which the surviving edges
    leave exactly two components, one around s and one around t.

    masks[e] holds the lanes in which edge e survives.  Reachability from s
    and from t is relaxed over the edges until it stops changing; a lane is a
    split exactly when every vertex is reachable from exactly one terminal.
    """
    reach = []
    for root in (s, t):
        r = [0] * n
        r[root] = lanes
        before = None
        while r != before:
            before = r[:]
            for (u, v), alive in zip(edges, masks):
                a, b = r[u], r[v]
                both = (a | b) & alive
                r[u] = a | both
                r[v] = b | both
        reach.append(r)
    hit = lanes
    for a, b in zip(*reach):
        hit &= a ^ b
    return hit.bit_count()


def _sample_block(
    n: int,
    edges: tuple[Edge, ...],
    s: int,
    t: int,
    num: int,
    den: int,
    block_seed: int,
    trials: int,
) -> int:
    """Number of splits among the block's first `trials` trials, each trial
    one lane of the edge masks, drawn as `RandomSource` describes.

    U < p is decided for all lanes at once, digit by digit: `tie` holds the
    lanes whose digits so far equal p's, and a tied lane drops below p at
    the first 1-digit of p where its own digit is 0.
    """
    getrandbits = random.Random(block_seed).getrandbits
    lanes = (1 << trials) - 1
    masks = []
    for _ in edges:
        # every U < 1, so p = 1 leaves no lane tied and draws nothing
        alive, tie, rest = (lanes, 0, 0) if num == den else (0, lanes, num)
        while tie and rest:
            plane = getrandbits(trials)
            rest <<= 1
            if rest >= den:  # p's next digit is 1
                rest -= den
                alive |= tie & ~plane
                tie &= plane
            else:
                tie &= ~plane
        masks.append(alive)  # lanes still tied have U >= p
    return _split_lanes(n, edges, s, t, masks, lanes)


def monte_carlo_sr(
    g: TwoTerminalGraph,
    p: Fraction | int | str,
    trials: int,
    rng: RandomSource,
) -> tuple[float, float]:
    """Bernoulli estimate of the split reliability at survival probability p.

    Returns (estimate, standard error), deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    prob = Fraction(p)
    if not 0 <= prob <= 1:
        raise ValueError("p must lie in [0, 1]")
    num, den = prob.numerator, prob.denominator
    hits = sum(
        _sample_block(
            g.graph.n,
            g.graph.edges,
            g.s,
            g.t,
            num,
            den,
            rng.block_seed(b),
            min(_MC_BLOCK, trials - start),
        )
        for b, start in enumerate(range(0, trials, _MC_BLOCK))
    )
    est = hits / trials
    stderr = math.sqrt(est * (1.0 - est) / trials)
    return est, stderr
