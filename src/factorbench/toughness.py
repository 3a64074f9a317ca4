"""Exact isolated toughness.

I(G) = min |S|/i(G-S) over S with i(G-S) >= 2 when G is not complete, and
|V|-1 for complete graphs.  Two independent algorithms are provided: a
subset-enumeration reference, and a faster enumeration of the closed
independent sets I = cl(N(I)) that visits each candidate S = N(I) once.
All values are exact `Fraction`s; no floating point enters any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapExceeded
from .graphs import Graph, _bits, isolated_count_mask, vertex_mask

DEFAULT_BRUTEFORCE_CAP = 16


@dataclass(frozen=True, slots=True)
class ToughnessReport:
    """Exact value with an attaining set.  For non-complete graphs the
    witness satisfies i(G - witness) >= 2 and value = |witness|/i; for
    complete graphs value = n-1 and the witness is empty."""

    value: Fraction
    witness: tuple[int, ...]
    isolated_at_witness: int

    def verify(self, g: Graph) -> bool:
        """Re-evaluate the witness against ``g``.  The witness must be a
        strictly increasing tuple of vertices of ``g``."""
        w = self.witness
        if not all(0 <= u < g.n for u in w) or any(u >= v for u, v in zip(w, w[1:])):
            return False
        if g.is_complete():
            return self.value == g.n - 1 and w == () and self.isolated_at_witness == 0
        keep = g.full_mask & ~vertex_mask(w)
        iso = isolated_count_mask(g.adj, keep)
        return (
            iso == self.isolated_at_witness
            and iso >= 2
            and self.value == Fraction(len(w), iso)
        )


def isolated_toughness_bruteforce(g: Graph, cap_n: int = DEFAULT_BRUTEFORCE_CAP) -> ToughnessReport:
    """Reference algorithm: minimise |S|/i(G-S) over every subset S with
    i(G-S) >= 2, enumerated in size-then-lexicographic order."""
    if g.n == 0:
        raise ValueError("isolated toughness is undefined on the empty graph")
    if g.n > cap_n:
        raise CapExceeded(f"brute-force toughness capped at {cap_n} vertices, got {g.n}")
    if g.is_complete():
        return ToughnessReport(Fraction(g.n - 1), (), 0)
    adj = g.adj
    full = g.full_mask
    best = None
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            keep = full & ~vertex_mask(combo)
            iso = isolated_count_mask(adj, keep)
            if iso < 2:
                continue
            ratio = Fraction(k, iso)
            if best is None or ratio < best[0]:
                best = (ratio, combo, iso)
    # Non-complete graphs always admit some S with i(G-S) >= 2: for any
    # nonadjacent pair u, v, take S = V - {u, v}.
    if best is None:
        raise RuntimeError("no S with i(G-S) >= 2 in a non-complete graph")
    return ToughnessReport(best[0], best[1], best[2])


def isolated_toughness(g: Graph) -> ToughnessReport:
    """Fast algorithm: minimise |S| / i(G - S) over the neighbourhoods
    S = N(I) of the closed independent sets I, visiting each S once.

    Any optimal S can be replaced by N(I) for I = the isolated vertices of
    G-S without increasing the ratio (N(I) is a subset of S while the
    isolates of G-N(I) still include I), so it suffices to range over the
    sets N(I) of independent I with i(G - N(I)) >= 2.

    The closure.  Let cl(S) = {v not in S : N(v) is a subset of S}, the
    isolated vertices of G - S, and c(I) = cl(N(I)).  On independent sets
    c is extensive, monotone and idempotent, and N(c(I)) = N(I).  So the
    closed sets I = c(I) and their neighbourhoods S are in bijection, and
    i(G - S) = |c(I)|.

    The enumeration is prefix-preserving closure extension (LCM, Uno,
    Kiyomi and Arimura 2004; Ganter's NextClosure, 1984).  The root is
    c({}), the degree-0 vertices, with core index -1; two or more of them
    give ratio 0 at S = {} at once.  A closed set P with core index
    ``core`` has the children Q = c(P + v) for v > core outside P and
    N(P), kept only when Q has no vertex below v that P lacks; Q's core
    index is v.  Every
    closed set then has exactly one parent, so every S is visited once.
    The check runs on the closure candidates below v before the rest of
    the closure is built.

    The prunes.  Once an incumbent num/den exists, three bounds skip work
    whose whole subtree is strictly worse.  N only grows down the tree.
    The fact behind all three: a closed set Q that ties or beats num/den
    holds only vertices of degree at most cap = num*n // (num + den).  For
    x in Q, N(x) lies inside N(Q) and Q inside V - N(Q), so |N(Q)| / |Q|
    >= d / (n - d) with d = deg(x), and d / (n - d) > num/den exactly when
    d > num*n / (num + den), that is d > cap.  Let lim be the vertices of
    degree at most cap.
      * Degree.  Each visit keeps only the child candidates in lim: one
        division per visit.
      * Degree-capped room.  Extension adds only vertices above the core
        index and never a vertex of N, so a set Q under child v of P that
        ties or beats the incumbent lies inside P + ((V - N) cap [v, n)
        cap lim), and |N(Q)| >= |N|.  Before its closure is built, v is
        skipped when |N| / |P + ((V - N) cap [v, n) cap lim)| > num/den:
        then every such Q has |N(Q)| / |Q| > num/den.  Strict, because a
        Q that ties has |N|*den <= |N(Q)|*den = num*|Q|, which is at most
        num times that room, so v is kept.
      * Pendant-private gain.  Call x a private neighbour of w when w is
        x's only neighbour of degree at most cap, and let pv[w] hold them.
        The pv[w] are disjoint subsets of N(w), which is all the proof
        needs; the private rule files each x under the one neighbour a set
        that ties the incumbent can hold.  A Q below the visit at P is
        P + A with A inside the visit's candidates ``rest`` (already masked
        by lim), and N(Q) holds N(P) and the disjoint sets pv[w] - N(P)
        for w in A.  So Q ties or beats num/den only if
        excess = |N(P)|*den - num*|P| <= sum over w in A of
        (num - den*|pv[w] - N(P)|) <= sum over w in rest of
        max(0, num - den*|pv[w] - N(P)|).  The visit returns before its
        child loop when excess exceeds that sum.  Strict, because a Q that
        ties meets the first inequality with equality, so excess is at
        most the sum and the visit goes on.  pv is rebuilt only when cap
        changes, and cap only falls as the incumbent improves; a pv built
        at a larger cap would still be sound, only weaker.
    Every test is strict, so a subtree holding a set as good as the
    incumbent is never cut, and an optimal S is always visited: a tie must
    be seen, since ties go to the lexicographically smaller sorted tuple.
    So the witness is the lexicographically smallest optimal S whatever
    the visit order.

    Ratios are compared as cross-multiplied integers, holding the
    incumbent as the pair (num, den); the one `Fraction` is built at
    return.  Only vertices of degree at most |N| can join a closure.

    The witness.  The incumbent S is held as a vertex mask, and the one
    witness tuple is built at return.  Ties are broken on the masks by
    `_sorted_before`: for masks A != B with x the lowest bit of A ^ B,
    A's sorted tuple is the smaller exactly when x is in A and B has a
    vertex above x, or x is in B and A has none above x.  Proof, for x in
    A (for x in B swap the roles of A and B):
      * the two tuples agree on their vertices below x;
      * A's next entry is x, and B's is its lowest vertex above x, if any;
      * so A is smaller if B has such a vertex, and B, a prefix of A, if not.
    """
    if g.n == 0:
        raise ValueError("isolated toughness is undefined on the empty graph")
    if g.is_complete():
        return ToughnessReport(Fraction(g.n - 1), (), 0)
    n = g.n
    adj = g.adj
    full = g.full_mask
    # deg_at_most[d]: vertices of degree <= d; only these can be isolated
    # once |N| = d
    deg_at_most = [0] * (n + 1)
    for x in range(n):
        deg_at_most[adj[x].bit_count()] |= 1 << x
    for d in range(1, n + 1):
        deg_at_most[d] |= deg_at_most[d - 1]
    root = deg_at_most[0]
    if root.bit_count() >= 2:
        return ToughnessReport(Fraction(0), (), root.bit_count())
    # incumbent ratio num/den, den = i(G - S) for the mask best_s of S;
    # den == 0 means none yet
    num, den, best_s = 0, 0, 0
    # pv[w]: the private neighbours of w at degree cap ``cap``; has_pv
    # marks the w that have some
    cap = -1
    pv = [0] * n
    has_pv = 0

    def extend(p: int, nbr: int, start: int) -> None:
        """Visit the children of the closed set ``p`` with N(p) = ``nbr``;
        ``start`` is one past p's core index."""
        nonlocal num, den, best_s, cap, has_pv
        rest = (full ^ p ^ nbr) >> start << start
        lim = full
        if den:
            c = num * n // (num + den)
            lim = deg_at_most[c]
            if c != cap:  # cap only falls: rebuild pv for the new cap
                cap = c
                pv[:] = [0] * n
                has_pv = 0
                for x in range(n):
                    low = adj[x] & lim
                    if low and not low & (low - 1):
                        pv[low.bit_length() - 1] |= 1 << x
                        has_pv |= low
            rest &= lim
            ws = rest & has_pv
            excess = nbr.bit_count() * den - num * p.bit_count() if ws else 0
            if excess > 0:
                gain = num * (rest ^ ws).bit_count()
                while ws and gain < excess:
                    w = ws & -ws
                    ws ^= w
                    gain += max(0, num - den * (pv[w.bit_length() - 1] & ~nbr).bit_count())
                if gain < excess:
                    return  # every closed set below p is strictly worse
        while rest:
            bit = rest & -rest
            rest ^= bit
            nn = nbr | adj[bit.bit_length() - 1]
            k = nn.bit_count()
            keep = full ^ nn
            if k * den > num * ((keep & -bit & lim) | p).bit_count():
                continue  # every closed set in this subtree is strictly worse
            cand = deg_at_most[k] & (keep ^ p ^ bit)
            low = cand & (bit - 1)
            while low:
                u = low & -low
                low ^= u
                if not adj[u.bit_length() - 1] & keep:
                    break  # c(p + v) gains a vertex below v: not p's child
            else:
                q = p | bit
                cand &= -bit
                while cand:
                    u = cand & -cand
                    cand ^= u
                    if not adj[u.bit_length() - 1] & keep:
                        q |= u
                iso = q.bit_count()
                if iso >= 2 and k * den <= num * iso:
                    if not den or k * den < num * iso or _sorted_before(nn, best_s):
                        num, den, best_s = k, iso, nn
                extend(q, nn, bit.bit_length())

    extend(root, 0, 0)
    if not den:  # non-complete: some nonadjacent pair exists
        raise RuntimeError("no independent pair found in a non-complete graph")
    return ToughnessReport(Fraction(num, den), tuple(_bits(best_s)), den)


def _sorted_before(a: int, b: int) -> bool:
    """Whether vertex mask ``a``'s sorted tuple is lexicographically
    smaller than ``b``'s (see `isolated_toughness` for the proof)."""
    x = (a ^ b) & -(a ^ b)
    return b >= x << 1 if a & x else a < x << 1


def threshold(name: str, a: int | None = None, b: int | None = None,
              n: int | None = None, m: int | None = None,
              k: int | None = None) -> Fraction:
    """Exact toughness bound of the named sufficient condition.

    theorem3: a-1+a/b        (factor existence)
    A:        a-1+n+(a-1)/b  (vertex deletion)
    B:        1/(m-n)        (edge deletion, star factors; needs 2n <= m)
    C:        a-1+(a+2n-1)/b (matching deletion)
    D1:       a-1+(a+kn-1)/b (deficiency lower bound; needs 2 <= k <= b)
    """
    if name == "B":
        _require(m is not None and n is not None, "B", "needs m and n")
        _require(n >= 1 and 2 * n <= m, "B", f"requires 1 <= n <= m/2, got m={m}, n={n}")
        return Fraction(1, m - n)
    _require(a is not None and b is not None, name, "needs a and b")
    _require(1 <= a < b, name, f"requires 1 <= a < b, got a={a}, b={b}")
    if name == "theorem3":
        return Fraction(a - 1) + Fraction(a, b)
    _require(n is not None and n >= 1, name, f"requires n >= 1, got n={n}")
    if name == "A":
        return Fraction(a - 1 + n) + Fraction(a - 1, b)
    if name == "C":
        return Fraction(a - 1) + Fraction(a + 2 * n - 1, b)
    if name == "D1":
        _require(k is not None and 2 <= k <= b, "D1", f"requires 2 <= k <= b, got k={k}")
        return Fraction(a - 1) + Fraction(a + k * n - 1, b)
    raise ValueError(f"unknown threshold name {name!r}")


def _require(cond: bool, name: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"threshold {name} {msg}")
