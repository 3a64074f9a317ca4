"""Graph core: construction invariants, graph6 round-trips, generators,
the extremal family, deletions, and isolated-vertex counting."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench import (
    DeletionSpec,
    Graph,
    GraphFormatError,
    build_extremal_H,
    complete_graph,
    cycle_graph,
    delete,
    delete_edges,
    delete_vertices,
    disjoint_union,
    emit_graph6,
    generate_random,
    isolated_count,
    join,
    parse_graph6,
    path_graph,
    star_graph,
)


def random_graphs(max_n=9):
    return st.integers(0, 2**12 - 1).flatmap(
        lambda seed: st.integers(1, max_n).map(
            lambda n: generate_random(n, Fraction(1, 2), seed * 31 + n)
        )
    )


# -- construction invariants --------------------------------------------------


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


def test_graph_adjacency_is_symmetric_and_degree_consistent():
    g = Graph(4, [(0, 1), (2, 1), (3, 0)])
    for u, v in g.edges:
        assert g.has_edge(u, v) and g.has_edge(v, u)
    for v in range(g.n):
        assert g.degree(v) == len(g.neighbors(v))


@pytest.mark.parametrize("u, v", [(5, 0), (-1, 2), (0, -1)])
def test_has_edge_is_false_outside_the_vertex_range(u, v):
    assert not complete_graph(5).has_edge(u, v)


def test_graph_is_immutable():
    g = Graph(2, [(0, 1)])
    for name in ("n", "adj", "_edges", "edges"):
        with pytest.raises(AttributeError):
            setattr(g, name, ())
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert (g.n, g.adj, g.edges) == (2, (2, 1), ((0, 1),))


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_graph_copies_equal_and_stay_immutable(clone):
    g = cycle_graph(5)
    h = clone(g)
    assert h == g and hash(h) == hash(g)
    assert h.edges == g.edges
    with pytest.raises(AttributeError, match="immutable"):
        h.n = 3


# -- the edge tuple, built on first access -----------------------------------


@settings(max_examples=100, deadline=None)
@given(random_graphs(max_n=12), st.randoms(use_true_random=False))
def test_trusted_and_validating_constructors_agree(g, rnd):
    trusted = Graph._from_adj(g.n, g.adj)
    shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges]
    rnd.shuffle(shuffled)
    checked = Graph(g.n, shuffled)
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked)
    assert trusted.edges == checked.edges


@settings(max_examples=100, deadline=None)
@given(random_graphs(max_n=12))
def test_edge_tuple_is_cached_and_sorted(g):
    edges = g.edges
    assert g.edges is edges
    assert list(edges) == sorted(edges)
    assert {(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)} == set(edges)


@settings(max_examples=100, deadline=None)
@given(random_graphs(max_n=12))
def test_edge_count_does_not_build_the_edge_tuple(g):
    fresh = Graph._from_adj(g.n, g.adj)
    count = fresh.edge_count
    assert fresh._edges is None
    assert count == len(fresh.edges) == sum(fresh.degrees()) // 2


# -- graph6 -------------------------------------------------------------------


def test_parse_graph6_known_line():
    # "D?{" decoded by hand from the published bit layout: n=5, payload
    # 000000 111100 -> edges (0,4), (1,4), (2,4), (3,4), a star at vertex 4.
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges == ((0, 4), (1, 4), (2, 4), (3, 4))
    assert emit_graph6(g) == "D?{"


def test_parse_graph6_k1_and_k4():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count == 0
    k4 = parse_graph6(emit_graph6(complete_graph(4)))
    assert k4.edge_count == 6
    assert set(k4.degrees()) == {3}


def test_emit_graph6_k1_and_determinism():
    assert emit_graph6(Graph(1)) == "@"
    g = generate_random(9, Fraction(1, 3), 7)
    assert emit_graph6(g) == emit_graph6(g)


def test_graph6_header_is_accepted():
    assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")


@pytest.mark.parametrize(
    "bad, offset",
    [
        ("", 0),
        ("~???", 0),  # long form refused
        ("D?", 2),  # truncated payload
        ("D?{{", 3),  # extra payload
        ("@\x00", 1),  # bad byte where no payload belongs
    ],
)
def test_parse_graph6_errors_carry_offsets(bad, offset):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph6(bad)
    assert exc.value.offset == offset


def test_parse_graph6_rejects_nonzero_padding():
    # K1,2 on 3 vertices uses 3 bits; flip a pad bit in the payload byte.
    line = emit_graph6(star_graph(2))
    corrupt = line[0] + chr(((ord(line[1]) - 63) | 1) + 63)
    with pytest.raises(GraphFormatError):
        parse_graph6(corrupt)


def test_emit_graph6_rejects_oversize():
    with pytest.raises(ValueError):
        emit_graph6(Graph(63))


def _bitwise_emit_graph6(g):
    """Reference encoder: the bit-by-bit loop over the upper triangle,
    column by column, six bits to a byte."""
    out = [g.n + 63]
    acc = 0
    width = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            width += 1
            if width == 6:
                out.append(acc + 63)
                acc = 0
                width = 0
    if width:
        out.append((acc << (6 - width)) + 63)
    return bytes(out).decode("ascii")


@pytest.mark.parametrize("n", range(63))
def test_graph6_emit_matches_the_bitwise_reference(n):
    # n = 0 and 1 have no payload bits; n = 2 and every empty graph have
    # only zero bits; the rest end on every pad width 0..5
    graphs = [Graph(n), complete_graph(n), star_graph(n - 1) if n else Graph(0)]
    graphs += [generate_random(n, Fraction(k, 5), 1000 * n + k) for k in (1, 2, 3, 4)]
    for g in graphs:
        assert emit_graph6(g) == _bitwise_emit_graph6(g)


@settings(max_examples=100, deadline=None)
@given(random_graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=100, deadline=None)
@given(random_graphs())
def test_graph6_agrees_with_networkx_reference(g):
    # networkx is the independent reference codec for the format.
    ours = emit_graph6(g)
    theirs = nx.to_graph6_bytes(
        nx.from_edgelist(g.edges, nx.Graph()) if g.edges else nx.empty_graph(g.n),
        header=False,
    ).decode().strip()
    if g.edges:
        # from_edgelist drops isolated trailing vertices; rebuild with nodes.
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert ours == theirs
    back = nx.from_graph6_bytes(ours.encode())
    assert set(back.edges()) == {tuple(e) for e in g.edges}


def _bitwise_parse_graph6(line):
    """Reference decoder: the bit-by-bit loop that builds the edge list and
    goes through the validating constructor; the mask parser must accept
    and refuse exactly what it does, with the same messages and offsets."""
    text = line.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("graph6 line is not ASCII", offset=exc.start) from None
    if not data:
        raise GraphFormatError("empty graph6 line", offset=0)
    first = data[0]
    if first == 126:
        raise GraphFormatError("long-form graph6 (n > 62) is not supported", offset=0)
    if not 63 <= first <= 125:
        raise GraphFormatError(f"invalid size byte {first}", offset=0)
    n = first - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise GraphFormatError(
            f"expected {need} payload bytes for n={n}, got {len(data) - 1}",
            offset=min(len(data), need + 1),
        )
    edges = []
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    k = 0
    for pos, byte in enumerate(data[1:], start=1):
        group = byte - 63
        if not 0 <= group <= 63:
            raise GraphFormatError(f"invalid payload byte {byte}", offset=pos)
        for shift in range(5, -1, -1):
            bit = group >> shift & 1
            if k < nbits:
                if bit:
                    edges.append(pairs[k])
                k += 1
            elif bit:
                raise GraphFormatError("nonzero padding bits", offset=pos)
    return Graph(n, edges)


def _parse_outcome(parse, line):
    try:
        g = parse(line)
    except GraphFormatError as exc:
        return "error", str(exc), exc.offset
    return "graph", g.n, g.adj, g.edges


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**12 - 1), st.integers(0, 40), st.sampled_from([1, 2, 3, 4]))
def test_graph6_parse_restores_adj_and_edges(seed, n, denom):
    g = generate_random(n, Fraction(denom, 5), seed)
    h = parse_graph6(emit_graph6(g))
    assert h.n == g.n and h.adj == g.adj and h.edges == g.edges


@st.composite
def graph6_like_lines(draw):
    """Printable lines, most with a size byte and a payload of about the
    right length, so that the byte and padding checks are reached."""
    printable = st.sampled_from([chr(c) for c in range(32, 127)])
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(printable | st.sampled_from(["\t", "\xe9", "\x7f"]), max_size=12))
    n = draw(st.integers(0, 16))
    need = (n * (n - 1) // 2 + 5) // 6
    length = max(0, need + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
    payload = draw(st.lists(
        st.integers(63, 126) | printable.map(ord) | st.just(127),
        min_size=length, max_size=length,
    ))
    head = draw(st.sampled_from(["", "", ">>graph6<<", " "]))
    tail = draw(st.sampled_from(["", "", "\n", " "]))
    return head + chr(n + 63) + "".join(map(chr, payload)) + tail


@settings(max_examples=400, deadline=None)
@given(graph6_like_lines())
def test_graph6_parse_matches_the_bitwise_reference(line):
    assert _parse_outcome(parse_graph6, line) == _parse_outcome(_bitwise_parse_graph6, line)


def test_graph6_error_order_matches_the_bitwise_reference():
    # a bad byte before a nonzero pad bit is named first; a bad last byte
    # is a bad byte, not padding
    for line in ("D\x7f~", "D~\x7f", "D?@", "D?\x7f", "B\x7f", "Bx"):
        assert _parse_outcome(parse_graph6, line) == _parse_outcome(_bitwise_parse_graph6, line)
    with pytest.raises(GraphFormatError, match=r"invalid payload byte 127 \(byte offset 1\)"):
        parse_graph6("D\x7f~")


# -- generators ---------------------------------------------------------------


def test_join_of_k1_and_3k1_is_claw():
    claw = join(Graph(1), Graph(3))
    assert claw == star_graph(3)


def test_cycle_degrees_and_union():
    assert set(cycle_graph(4).degrees()) == {2}
    two_k2 = disjoint_union(Graph(2, [(0, 1)]), Graph(2, [(0, 1)]))
    assert two_k2.n == 4 and two_k2.edge_count == 2
    assert isolated_count(two_k2) == 0


def test_generate_random_extremes_and_determinism():
    assert generate_random(5, 0, 123).edge_count == 0
    assert generate_random(5, 1, 123) == complete_graph(5)
    a = generate_random(10, Fraction(1, 2), 42)
    b = generate_random(10, Fraction(1, 2), 42)
    assert a == b
    assert generate_random(10, Fraction(1, 2), 43) != a  # seed matters


def test_generate_random_validates_p():
    for p in (Fraction(3, 2), Fraction(-1, 2), 2, -1):
        with pytest.raises(ValueError, match="probability"):
            generate_random(4, p, 0)


def test_generate_random_validates_n():
    for p in (0, Fraction(1, 2), 1):
        with pytest.raises(ValueError, match="nonnegative"):
            generate_random(-1, p, 0)
    assert generate_random(0, Fraction(1, 2), 0) == Graph(0)


def _randrange_generate_random(n, p, seed):
    """Reference G(n, p): one ``randrange(den)`` per pair in
    ``combinations`` order, through the validating constructor."""
    rng = random.Random(seed)
    p = Fraction(p)
    edges = [e for e in combinations(range(n), 2) if rng.randrange(p.denominator) < p.numerator]
    return Graph(n, edges)


@st.composite
def probabilities(draw):
    den = draw(st.integers(1, 20))
    return Fraction(draw(st.integers(0, den)), den)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 30), probabilities(), st.integers(0, 2**64))
def test_generate_random_matches_the_randrange_reference(n, p, seed):
    g = generate_random(n, p, seed)
    ref = _randrange_generate_random(n, p, seed)
    assert (g.n, g.adj, g.edges) == (ref.n, ref.adj, ref.edges)


# -- extremal family ----------------------------------------------------------


def test_extremal_h_1231_shape():
    w = build_extremal_H(1, 2, 3, 1)
    g = w.graph
    assert g.n == 1 + 4 + 8 == 13
    assert len(w.clique_small) == 1
    assert len(w.isolated_row) == 4
    assert len(w.clique_large) == 8
    # each row vertex v_i has exactly one join edge plus its pendant u_i
    for v in w.isolated_row:
        assert g.degree(v) == 2


def test_extremal_h_2231_part_sizes():
    w = build_extremal_H(2, 2, 3, 1)
    assert (len(w.clique_small), len(w.isolated_row), len(w.clique_large)) == (2, 7, 14)


def test_extremal_h_parts_partition_and_pendants():
    for params in [(1, 2, 3, 1), (2, 2, 3, 1), (1, 3, 4, 2)]:
        w = build_extremal_H(*params)
        m, a, b, n = params
        parts = set(w.clique_small) | set(w.isolated_row) | set(w.clique_large)
        assert parts == set(range(w.graph.n))
        assert len(w.clique_small) == m * (a - 1)
        assert len(w.isolated_row) == m * b + 1
        assert len(w.clique_large) == (m * b + 1) * (a - 1 + n)
        small = set(w.clique_small)
        for u, v in w.pendant_pairs:
            assert u in set(w.clique_large) and v in set(w.isolated_row)
            # v_i's single neighbour outside the small clique is u_i
            outside = [x for x in w.graph.neighbors(v) if x not in small]
            assert outside == [u]
            assert w.graph.degree(v) == m * (a - 1) + 1
        # small clique completely joined to the row
        for wv in w.clique_small:
            for v in w.isolated_row:
                assert w.graph.has_edge(wv, v)


def test_extremal_h_a1_has_empty_small_clique():
    w = build_extremal_H(2, 1, 3, 1)
    assert w.clique_small == ()
    for v in w.isolated_row:
        assert w.graph.degree(v) == 1  # pendant edge only


def _edge_list_extremal_H(m, a, b, n):
    """Reference H(m, a, b, n) from its edge list: both cliques, the join
    of the small clique to the row, and the pendant matching."""
    s_small, s_row = m * (a - 1), m * b + 1
    order = s_small + s_row + s_row * (a - 1 + n)
    small = range(s_small)
    row = range(s_small, s_small + s_row)
    large = range(s_small + s_row, order)
    edges = list(combinations(small, 2)) + list(combinations(large, 2))
    edges += [(w, v) for w in small for v in row]
    edges += [(large[i], row[i]) for i in range(s_row)]
    return Graph(order, edges)


@pytest.mark.parametrize("params", [
    (m, a, b, n) for m in (1, 2, 3) for a, b in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    for n in (1, 2)
])
def test_extremal_h_matches_the_edge_list_reference(params):
    g = build_extremal_H(*params).graph
    ref = _edge_list_extremal_H(*params)
    assert (g.n, g.adj, g.edges) == (ref.n, ref.adj, ref.edges)


def test_extremal_h_rejects_bad_params():
    for bad in [(0, 2, 3, 1), (1, 3, 3, 1), (1, 0, 3, 1), (1, 2, 3, 0)]:
        with pytest.raises(ValueError):
            build_extremal_H(*bad)


# -- deletions ----------------------------------------------------------------


def test_delete_vertex_from_c4_gives_p3():
    res = delete_vertices(cycle_graph(4), [0])
    assert res.graph == path_graph(3)
    assert res.original_labels == (1, 2, 3)


def test_delete_middle_edge_of_p4_gives_2k2():
    g = delete_edges(path_graph(4), [(1, 2)])
    assert g.edges == ((0, 1), (2, 3))


def test_delete_perfect_matching_from_k4_gives_c4():
    g = delete(complete_graph(4), DeletionSpec.matching([(0, 1), (2, 3)])).graph
    # direct adjacency check: remaining edges form a 4-cycle 0-2-1-3-0
    assert g.edges == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert set(g.degrees()) == {2}


def test_delete_missing_member_is_named():
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        delete(path_graph(3), DeletionSpec.edge(0, 2))
    with pytest.raises(ValueError, match="7"):
        delete(path_graph(3), DeletionSpec.vertices([7]))


def test_delete_rejects_overlapping_matching():
    with pytest.raises(ValueError, match="disjoint"):
        delete(path_graph(3), DeletionSpec.matching([(0, 1), (1, 2)]))


@settings(max_examples=80, deadline=None)
@given(random_graphs(), st.data())
def test_delete_then_unremap_is_identity(g, data):
    vs = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
    res = delete_vertices(g, vs)
    lifted = {
        (res.original_labels[u], res.original_labels[v]) for u, v in res.graph.edges
    }
    survivors = set(res.original_labels)
    expected = {e for e in g.edges if e[0] in survivors and e[1] in survivors}
    assert lifted == expected


def _edge_list_delete(g, kind, members):
    """Reference deletion through the edge list and the validating
    constructor."""
    if kind == "vertices":
        keep = [v for v in range(g.n) if v not in set(members)]
        index = {old: new for new, old in enumerate(keep)}
        edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
        return Graph(len(keep), edges), tuple(keep)
    gone = {(min(e), max(e)) for e in members}
    return Graph(g.n, [e for e in g.edges if e not in gone]), tuple(range(g.n))


@settings(max_examples=150, deadline=None)
@given(random_graphs(max_n=14), st.data())
def test_delete_vertices_and_edges_match_the_edge_list_reference(g, data):
    vs = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
    res = delete_vertices(g, vs)
    ref, labels = _edge_list_delete(g, "vertices", vs)
    assert (res.graph.n, res.graph.adj, res.graph.edges) == (ref.n, ref.adj, ref.edges)
    assert res.original_labels == labels
    if g.edges:
        es = data.draw(st.lists(st.sampled_from(g.edges), max_size=4))
        es = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in es]
        h = delete_edges(g, es)
        ref, _ = _edge_list_delete(g, "edges", es)
        assert (h.n, h.adj, h.edges) == (ref.n, ref.adj, ref.edges)


# -- isolated vertices --------------------------------------------------------


def test_isolated_count_examples():
    assert isolated_count(star_graph(3), [0]) == 3
    assert isolated_count(cycle_graph(4), [0, 2]) == 2
    g = generate_random(8, Fraction(9, 10), 5)
    if g.min_degree() >= 1:
        assert isolated_count(g, []) == 0


def test_isolated_count_validates_s():
    with pytest.raises(ValueError):
        isolated_count(path_graph(2), [5])


@settings(max_examples=60, deadline=None)
@given(random_graphs(max_n=8))
def test_lemma_f_bounds_on_every_edge(g):
    # removing one edge can only create the two endpoints as new isolates
    base = isolated_count(g)
    for e in g.edges:
        after = isolated_count(delete_edges(g, [e]))
        assert base <= after <= base + 2
