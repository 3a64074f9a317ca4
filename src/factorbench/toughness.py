"""Exact isolated toughness.

I(G) = min |S|/i(G-S) over S with i(G-S) >= 2 when G is not complete, and
|V|-1 for complete graphs.  Two independent algorithms are provided: a
subset-enumeration reference, and a faster search over independent sets.
All values are exact `Fraction`s; no floating point enters any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapExceeded
from .graphs import Graph, isolated_count_mask, vertex_mask

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
        """Re-evaluate the witness against ``g``."""
        if g.is_complete():
            return self.value == g.n - 1 and self.witness == ()
        keep = g.full_mask & ~vertex_mask(self.witness)
        iso = isolated_count_mask(g.adj, keep)
        return (
            iso == self.isolated_at_witness
            and iso >= 2
            and self.value == Fraction(len(self.witness), iso)
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
    """Fast algorithm: minimise |N(I)| / i(G - N(I)) over independent sets
    I with |I| >= 2, where N(I) is the union of neighbourhoods.

    Any optimal S can be replaced by N(I) for I = the isolated vertices of
    G-S without increasing the ratio (N(I) is a subset of S while the
    isolates of G-N(I) still include I), so this search is exact.  Since I
    is independent and no vertex is its own neighbour, N(I) and I are
    disjoint, hence i(G - N(I)) >= |I| >= 2 for every candidate.

    Branches are pruned when even the best conceivable extension ratio
    |N| / (n - |N|) strictly exceeds the incumbent, so every optimal N(I)
    is still visited.  The witness is therefore canonical: among the sets
    N(I) of minimum ratio it is the lexicographically smallest sorted
    tuple, whatever the visit order.

    The search compares ratios as cross-multiplied integers, holding the
    incumbent as the pair (num, den); the one `Fraction` is built at
    return.  The isolated count of G - N(I) takes I as isolated and tests
    only the other vertices of degree at most |N(I)|.
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
    # incumbent ratio num/den, den = i(G - best_s); den == 0 means none yet
    num, den = 0, 0
    best_s: tuple[int, ...] = ()

    def extend(i_mask: int, nbr_mask: int, start: int, size: int) -> bool:
        """Grow I from ``start``.  Returns True to abort (found ratio 0)."""
        nonlocal num, den, best_s
        scount = nbr_mask.bit_count()
        if den and scount * den > num * (n - scount):
            return False  # every extension is strictly worse
        for v in range(start, n):
            if adj[v] & i_mask:
                continue  # keep I independent
            ni = i_mask | 1 << v
            nn = nbr_mask | adj[v]
            if size:
                keep = full & ~nn
                k = nn.bit_count()
                iso = size + 1  # I itself is isolated in G - N(I)
                rest = keep & ~ni & deg_at_most[k]
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if not adj[bit.bit_length() - 1] & keep:
                        iso += 1
                if not den or k * den <= num * iso:
                    s_tuple = tuple(u for u in range(n) if nn >> u & 1)
                    if not den or k * den < num * iso or s_tuple < best_s:
                        num, den, best_s = k, iso, s_tuple
                        if k == 0:
                            return True  # global minimum; unique witness S = {}
            if extend(ni, nn, v + 1, size + 1):
                return True
        return False

    extend(0, 0, 0, 0)
    if not den:  # non-complete: some nonadjacent pair exists
        raise RuntimeError("no independent pair found in a non-complete graph")
    return ToughnessReport(Fraction(num, den), best_s, den)


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
