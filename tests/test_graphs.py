from __future__ import annotations

import collections
import hashlib
import itertools
import math
import random
import re

import pytest

from wordgraphs import (
    Graph,
    adjacency,
    bell_number,
    clique_partition_graph,
    complete_graph,
    contains_induced,
    crown_graph,
    cycle_graph,
    empty_graph,
    enumerate_labeled_graphs,
    fixture,
    fixture_names,
    graph_from_edge_list_text,
    graph_from_json_text,
    graph_from_text,
    induced_subgraph,
    is_threshold,
    is_threshold_by_obstruction,
    partitionable_into,
    path_graph,
    set_partitions,
    to_edge_list_text,
    to_json_dict,
    to_json_text,
)
from wordgraphs.errors import BudgetExceededError
from wordgraphs import graphs
from wordgraphs.graphs import _canonical_form, _compress, _graph_classes, _neighbour_masks, _twins


def graph_on(nodes, edges):
    return Graph(frozenset(nodes), frozenset(tuple(e) for e in edges))


def random_graph(rng, nodes, p=0.4):
    edges = {pair for pair in itertools.combinations(sorted(nodes), 2) if rng.random() < p}
    return graph_on(nodes, edges)


def test_graph_normalizes_and_validates():
    g = Graph(frozenset("ab"), frozenset({("b", "a")}))
    assert g.sorted_edges() == [("a", "b")]
    with pytest.raises(ValueError):
        Graph(frozenset("a"), frozenset({("a", "a")}))
    with pytest.raises(ValueError):
        Graph(frozenset("a"), frozenset({("a", "b")}))


def test_adjacency():
    g = fixture("P4")
    assert adjacency(g) == {"1": {"2"}, "2": {"1", "3"}, "3": {"2", "4"}, "4": {"3"}}
    # the neighbour masks read the same adjacency, bit j for the j-th sorted node
    rng = random.Random(7)
    graphs = [random_graph(rng, [str(i) for i in range(rng.randrange(60))]) for _ in range(30)]
    for g in graphs + [g, empty_graph(3), complete_graph(300), path_graph(300)]:
        nodes = g.sorted_nodes()
        near = adjacency(g)
        assert _neighbour_masks(g) == [
            sum(1 << j for j, v in enumerate(nodes) if v in near[u]) for u in nodes
        ]


def test_generators():
    assert complete_graph(4) == graph_on(
        "1234", [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]
    )
    assert empty_graph(3) == graph_on("123", [])
    assert path_graph(4) == fixture("P4")
    assert cycle_graph(4) == fixture("C4")
    with pytest.raises(ValueError):
        cycle_graph(2)
    assert crown_graph(2) == graph_on("1234", [("1", "4"), ("2", "3")])
    assert len(crown_graph(3).edges) == 6
    assert clique_partition_graph([["a", "b"], ["c", "d"]]) == graph_on(
        "abcd", [("a", "b"), ("c", "d")]
    )
    with pytest.raises(ValueError):
        clique_partition_graph([["a"], ["a"]])
    with pytest.raises(ValueError):
        clique_partition_graph([[]])


def test_crown_is_complete_bipartite_minus_matching():
    g = crown_graph(3)
    left = {"1", "2", "3"}
    for u, v in g.edges:
        assert (u in left) != (v in left)
    assert ("1", "4") not in g.edges
    assert ("2", "5") not in g.edges
    assert ("3", "6") not in g.edges


def test_fixtures_present():
    names = fixture_names()
    for name in ("C4", "2K2", "P4", "K4", "E02", "E11"):
        assert name in names
    assert fixture("c4") == fixture("C4")
    with pytest.raises(ValueError):
        fixture("nope")
    four, seven = set("1234"), set("1234567")
    assert {name: set(fixture(name).nodes) for name in names} == {
        "C4": four, "2K2": four, "P4": four, "K4": set("abcd"), "E02": seven, "E11": seven,
    }
    assert len(fixture("E02").edges) == 15
    assert len(fixture("E11").edges) == 12


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, [f"v{i}" for i in range(rng.randrange(0, 7))])
        assert graph_from_json_text(to_json_text(g)) == g
    d = to_json_dict(fixture("P4"))
    assert d == {"nodes": ["1", "2", "3", "4"], "edges": [["1", "2"], ["2", "3"], ["3", "4"]]}


def test_json_text_is_byte_stable():
    g = fixture("2K2")
    assert to_json_text(g) == to_json_text(graph_from_json_text(to_json_text(g)))
    assert to_json_text(g) == '{"edges": [["1", "2"], ["3", "4"]], "nodes": ["1", "2", "3", "4"]}'


def test_edge_list_round_trip():
    rng = random.Random(9)
    for _ in range(50):
        g = random_graph(rng, [f"v{i}" for i in range(rng.randrange(0, 7))])
        assert graph_from_edge_list_text(to_edge_list_text(g)) == g
    # ids the line reader would split or drop are refused, as "node" is
    for bad in ("", " ", "a b", "\t", "x\n", "\u2028"):
        with pytest.raises(ValueError, match="use JSON"):
            to_edge_list_text(graph_on(["a", bad], [("a", bad)]))


def test_edge_list_format():
    g = graph_on(["a", "b", "z"], [("a", "b")])
    assert to_edge_list_text(g) == "a b\nnode z"
    assert graph_from_edge_list_text("a b\n\nnode z\n") == g


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        graph_from_edge_list_text("a b\na b c\n")
    with pytest.raises(ValueError, match="line 1"):
        graph_from_edge_list_text("a a\n")


def test_graph_from_text_sniffs_format():
    g = fixture("2K2")
    assert graph_from_text(to_json_text(g)) == g
    assert graph_from_text(to_edge_list_text(g)) == g


def test_induced_subgraph():
    g = fixture("C4")
    assert induced_subgraph(g, {"1", "2", "3"}) == graph_on("123", [("1", "2"), ("2", "3")])
    assert induced_subgraph(g, set()) == graph_on([], [])
    with pytest.raises(ValueError):
        induced_subgraph(g, {"1", "9"})


def test_contains_induced_basics():
    assert contains_induced(fixture("C4"), path_graph(3))
    assert not contains_induced(fixture("C4"), path_graph(4))
    assert contains_induced(complete_graph(4), complete_graph(3))
    assert not contains_induced(complete_graph(3), empty_graph(2))
    assert not contains_induced(path_graph(2), path_graph(3))


def test_contains_induced_matches_definition_exhaustively():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, "abcde")
        h = random_graph(rng, "xyz")
        expected = any(
            _induced_equal(g, set(keep), h)
            for keep in itertools.combinations(sorted(g.nodes), len(h.nodes))
        )
        assert contains_induced(g, h) == expected


def _induced_equal(g, keep, h):
    sub = induced_subgraph(g, keep)
    for perm in itertools.permutations(sorted(h.nodes)):
        mapping = dict(zip(sorted(keep), perm))
        mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in sub.edges}
        if mapped == {tuple(sorted(e)) for e in h.edges}:
            return True
    return False


def test_contains_induced_budget():
    with pytest.raises(BudgetExceededError):
        contains_induced(complete_graph(11), complete_graph(3))
    assert contains_induced(complete_graph(11), complete_graph(3), node_budget=11)


def test_threshold_small_cases():
    assert is_threshold(empty_graph(0))
    assert is_threshold(empty_graph(4))
    assert is_threshold(complete_graph(4))
    assert is_threshold(path_graph(3))
    assert not is_threshold(fixture("C4"))
    assert not is_threshold(fixture("2K2"))
    assert not is_threshold(fixture("P4"))
    assert not is_threshold(cycle_graph(5))


def test_threshold_elimination_agrees_with_obstruction():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            assert is_threshold(g) == is_threshold_by_obstruction(g), g
    # one graph per isomorphism class up to 6 nodes
    for m, layer in enumerate(_graph_classes(6, node_budget=6)):
        verdicts = [is_threshold(class_graph(c)) for c in layer]
        for c, verdict in zip(layer, verdicts):
            assert verdict == is_threshold_by_obstruction(class_graph(c), node_budget=6), c.masks
        # a threshold graph adds an isolated or a universal vertex at a
        # time, and the first choice does not matter: 2^(m-1) classes
        assert sum(verdicts) == max(1, 2 ** (m - 1))


@pytest.mark.parametrize(
    "g",
    [complete_graph(10), empty_graph(10), crown_graph(5), cycle_graph(10)],
    ids=["K10", "E10", "crown5", "C10"],
)
def test_contains_induced_itself_at_the_node_budget(g):
    # large automorphism groups: 10!, 10!, 240 and 20
    assert contains_induced(g, g)
    assert not contains_induced(g, path_graph(10))


def test_enumerate_labeled_graphs_counts():
    assert len(list(enumerate_labeled_graphs(0))) == 1
    assert len(list(enumerate_labeled_graphs(3))) == 8
    assert len(list(enumerate_labeled_graphs(4))) == 64
    with pytest.raises(BudgetExceededError):
        list(enumerate_labeled_graphs(6))
    assert len(list(enumerate_labeled_graphs(5, node_budget=5))) == 1024


CLASS_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]  # OEIS A000088


def class_graph(cls):
    """The class's graph on nodes "1".."m", from its canonical masks."""
    nodes = [str(i) for i in range(1, len(cls.masks) + 1)]
    return Graph(nodes, [(nodes[i], nodes[j]) for i, a in enumerate(cls.masks) for j in range(i) if a >> j & 1])


def test_graph_classes_counts():
    layers = list(_graph_classes(7, node_budget=7))
    assert [len(layer) for layer in layers] == CLASS_COUNTS[:8]
    for n, layer in enumerate(layers):
        assert sum(cls.labeled for cls in layer) == 2 ** (n * (n - 1) // 2)
        codes = [cls.code for cls in layer]
        assert codes == sorted(codes)
        for cls in layer:
            g = class_graph(cls)
            assert g.nodes == frozenset(str(i) for i in range(1, n + 1))
            assert _neighbour_masks(g) == list(cls.masks)
            assert cls.code == _canonical_form(list(cls.masks))[0]


def test_graph_classes_parents_are_the_classes_of_g_minus_v():
    layers = list(_graph_classes(6, node_budget=6))
    assert layers[0][0].parents == ()
    for n, layer in enumerate(layers[1:], 1):
        smaller = {cls.code: cls for cls in layers[n - 1]}
        for cls in layer:
            g = class_graph(cls)
            deleted = {_canonical_form(_neighbour_masks(induced_subgraph(g, g.nodes - {v})))[0] for v in g.nodes}
            codes = [code for code, _ in cls.parents]
            assert codes == sorted(deleted)
            # the embedding maps the parent's canonical graph onto G - v,
            # v being the vertex at the last byte's position
            for code, embedding in cls.parents:
                assert sorted(embedding) == list(range(n))
                parent = smaller[code].masks
                for i, j in itertools.combinations(range(n - 1), 2):
                    assert parent[i] >> j & 1 == cls.masks[embedding[i]] >> embedding[j] & 1


def test_graph_classes_checks_like_the_labeled_enumeration(monkeypatch):
    # at the first next(), before any layer is grown or a stored one yielded
    monkeypatch.setattr(graphs, "_CLASS_TOWER", graphs._CLASS_TOWER[:1])
    for stored in (1, 8):
        for n, budget in ((-1, 5), (6, 5), (4, 3)):
            with pytest.raises((ValueError, BudgetExceededError)) as labeled:
                list(enumerate_labeled_graphs(n, node_budget=budget))
            with pytest.raises(labeled.type, match=f"^{re.escape(str(labeled.value))}$"):
                next(_graph_classes(n, node_budget=budget))
        with pytest.raises(BudgetExceededError, match="^6 nodes exceeds the enumeration budget 5$"):
            next(_graph_classes(6))
        assert len(graphs._CLASS_TOWER) == stored
        list(_graph_classes(7, node_budget=7))


def _brute_force_code(g, n):
    """Smallest sorted edge tuple over all n! relabelings of g."""
    edges = [(int(u) - 1, int(v) - 1) for u, v in g.edges]
    return min(
        tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        for perm in itertools.permutations(range(n))
    )


def test_graph_classes_match_brute_force_relabeling():
    for n, layer in enumerate(_graph_classes(5)):
        sizes = collections.Counter(_brute_force_code(g, n) for g in enumerate_labeled_graphs(n))
        found = [(_brute_force_code(class_graph(cls), n), cls.labeled) for cls in layer]
        assert len(found) == len(sizes)
        assert dict(found) == sizes


def test_graph_classes_match_the_networkx_atlas():
    nx = pytest.importorskip("networkx")
    graphs = nx.graph_atlas_g()
    sizes = collections.Counter(h.number_of_nodes() for h in graphs)
    assert [sizes[n] for n in range(8)] == CLASS_COUNTS[:8]
    atlas = collections.defaultdict(set)
    for h in graphs:
        g = Graph([str(v) for v in h.nodes], [(str(u), str(v)) for u, v in h.edges])
        atlas[len(g.nodes)].add(_canonical_form(_neighbour_masks(g))[0])
    for n, layer in enumerate(_graph_classes(7, node_budget=7)):
        assert {cls.code for cls in layer} == atlas[n]


def _closure_size(generators, n):
    """Number of permutations the generators generate, by closing under them."""
    identity = tuple(range(n))
    seen = {identity}
    stack = [identity]
    while stack:
        perm = stack.pop()
        for g in generators:
            image = tuple(g[v] for v in perm)
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return len(seen)


def test_twins_are_the_swappable_pairs():
    # brute force: u and v are twins when swapping them keeps every edge
    for n in range(6):
        for g in enumerate_labeled_graphs(n, node_budget=5):
            adj = _neighbour_masks(g)

            def swappable(u, v):
                swap = list(range(n))
                swap[u], swap[v] = v, u
                return [_compress(adj[w], swap) for w in swap] == adj

            classes = {v: {v} for v in range(n)}
            for u, v in _twins(adj):
                assert u < v and max(classes[u]) == u and swappable(u, v)
                classes[u].add(v)
                classes[v] = classes[u]
            assert all(swappable(u, v) == (v in classes[u]) for u in range(n) for v in range(u))


def test_canonical_form_generators_generate_the_automorphism_group():
    # |Aut| from networkx's matcher, an independent oracle, on every class up
    # to 6 nodes in its canonical labeling and in a shuffled one
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(61)
    for n, layer in enumerate(_graph_classes(6, node_budget=6)):
        for cls in layer:
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            canonical = _neighbour_masks(class_graph(cls))
            for adj in (canonical, [_compress(canonical[v], shuffled) for v in shuffled]):
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from((i, j) for i in range(n) for j in range(i) if adj[i] >> j & 1)
                automorphisms = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
                _, count, _, generators = _canonical_form(adj)
                assert count == automorphisms
                for g in generators:
                    assert sorted(g) == list(range(n))
                    assert [_compress(adj[v], g) for v in g] == adj, (adj, g)
                # the twin transpositions, then at most n - 1 leaf generators
                twins = len(_twins(adj))
                assert all(sum(v != g[v] for v in range(n)) == 2 for g in generators[:twins])
                assert len(generators) - twins <= max(n - 1, 0)
                assert _closure_size(generators, n) == automorphisms, (adj, generators)


def test_canonical_form_of_a_large_edgeless_graph():
    # the positions are filled on an explicit stack: 1100 of them is far
    # beyond the recursion limit
    n = 1100
    code, count, order, generators = _canonical_form([0] * n)
    assert (code, count, order) == (0, math.factorial(n), list(range(n)))
    # the consecutive twin transpositions, and no leaf ever ties
    assert len(generators) == n - 1
    assert all(g[v] == v + 1 and g[v + 1] == v for v, g in enumerate(generators))


def _grow_every_subset(n):
    """The class tower grown from every subset of every parent, no orbits."""
    layers = [{0: ([], 1, set())}]
    for m in range(1, n + 1):
        grown = {}
        for parent, (adj, _, _) in layers[-1].items():
            for joined in range(1 << (m - 1)):
                masks = [a | (joined >> i & 1) << (m - 1) for i, a in enumerate(adj)]
                masks.append(joined)
                code, automorphisms, order, _ = _canonical_form(masks)
                canonical = [_compress(masks[v], order) for v in order]
                grown.setdefault(code, (canonical, automorphisms, set()))[2].add(parent)
        layers.append(grown)
    return [
        [(code, math.factorial(m) // layer[code][1], frozenset(layer[code][2])) for code in sorted(layer)]
        for m, layer in enumerate(layers)
    ]


def test_graph_classes_grow_one_subset_per_orbit_like_every_subset():
    plain = _grow_every_subset(7)
    for m, layer in enumerate(_graph_classes(7, node_budget=7)):
        grown = [(cls.code, cls.labeled, frozenset(code for code, _ in cls.parents)) for cls in layer]
        assert grown == plain[m]


def test_graph_classes_canonical_form_calls_are_pinned(monkeypatch):
    # machine-independent: one canonical form per orbit of joined subsets,
    # against 219 and 11,291 for every subset of every parent
    calls = []
    real = graphs._canonical_form

    def counted(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(graphs, "_canonical_form", counted)
    for n, expected in ((5, 119), (7, 5759)):
        # a cold store, grown from its 0-node seed
        monkeypatch.setattr(graphs, "_CLASS_TOWER", graphs._CLASS_TOWER[:1])
        calls.clear()
        list(_graph_classes(n, node_budget=n))
        assert len(calls) == expected
        # the tower is grown once per process: a warm store yields it as is
        calls.clear()
        list(_graph_classes(n, node_budget=n))
        assert calls == []


@pytest.mark.slow
def test_graph_classes_at_eight_nodes(monkeypatch):
    # about 6 s from a cold store; the warm store comes back afterwards
    calls = 0
    real = graphs._canonical_form

    def counted(adj):
        nonlocal calls
        calls += 1
        return real(adj)

    monkeypatch.setattr(graphs, "_canonical_form", counted)
    monkeypatch.setattr(graphs, "_CLASS_TOWER", graphs._CLASS_TOWER[:1])
    layers = list(_graph_classes(8, node_budget=8))
    assert [len(layer) for layer in layers] == CLASS_COUNTS
    for m, layer in enumerate(layers):
        assert sum(cls.labeled for cls in layer) == 2 ** (m * (m - 1) // 2)
    assert calls == 85023


GRAPH_CLASS_FIELDS = ("code", "labeled", "parents", "masks", "generators")


def test_graph_classes_grown_in_steps_equal_a_cold_build(monkeypatch):
    monkeypatch.setattr(graphs, "_CLASS_TOWER", graphs._CLASS_TOWER[:1])
    for n in (3, 5, 7):
        list(_graph_classes(n, node_budget=n))
    warm = list(_graph_classes(7, node_budget=7))
    monkeypatch.setattr(graphs, "_CLASS_TOWER", graphs._CLASS_TOWER[:1])
    cold = list(_graph_classes(7, node_budget=7))
    assert graphs._GraphClass._fields == GRAPH_CLASS_FIELDS
    assert len(warm) == len(cold) == 8
    for m, (warm_layer, cold_layer) in enumerate(zip(warm, cold)):
        assert len(warm_layer) == len(cold_layer) == CLASS_COUNTS[m]
        for field in GRAPH_CLASS_FIELDS:
            assert [getattr(c, field) for c in warm_layer] == [getattr(c, field) for c in cold_layer], field
        # every sweep in the process reads the same layers, so none may change them
        assert isinstance(warm_layer, tuple)
        for cls in warm_layer:
            assert isinstance(cls.masks, tuple)
            assert isinstance(cls.generators, tuple) and all(isinstance(g, tuple) for g in cls.generators)


def test_graph_classes_store_keeps_only_complete_layers(monkeypatch):
    monkeypatch.setattr(graphs, "_CLASS_TOWER", graphs._CLASS_TOWER[:1])
    # an abandoned call stores the layers it yielded and no more
    layers = _graph_classes(5)
    for _ in range(3):
        next(layers)
    layers.close()
    assert len(graphs._CLASS_TOWER) == 3
    # a call that fails while growing a layer stores none of it
    real = graphs._canonical_form
    calls = []

    def failing(adj):
        calls.append(len(adj))
        if calls.count(5) == 20:
            raise RuntimeError("stop")
        return real(adj)

    monkeypatch.setattr(graphs, "_canonical_form", failing)
    with pytest.raises(RuntimeError, match="^stop$"):
        list(_graph_classes(5))
    assert len(graphs._CLASS_TOWER) == 5
    monkeypatch.setattr(graphs, "_canonical_form", real)
    assert [len(layer) for layer in _graph_classes(5)] == CLASS_COUNTS[:6]


def test_bell_numbers():
    assert [bell_number(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140][:8]
    with pytest.raises(ValueError):
        bell_number(-1)


def test_set_partitions_count_matches_bell():
    for n in range(7):
        items = [f"x{i}" for i in range(n)]
        parts = list(set_partitions(items))
        assert len(parts) == bell_number(n)
        # every partition covers the items exactly
        for p in parts:
            flat = [x for part in p for x in part]
            assert sorted(flat) == sorted(items)
        # all distinct
        canon = {tuple(sorted(tuple(sorted(part)) for part in p)) for p in parts}
        assert len(canon) == len(parts)


def test_partitionable_into_certificates():
    ok, cert = partitionable_into(fixture("C4"), 2, 0)
    assert ok
    parts = dict((kind, nodes) for kind, nodes in cert)
    assert all(kind == "independent" for kind, _ in cert)
    ok, cert = partitionable_into(complete_graph(3), 0, 1)
    assert ok and cert == (("clique", frozenset({"1", "2", "3"})),)
    ok, cert = partitionable_into(fixture("C4"), 0, 1)
    assert not ok and cert is None


def test_partitionable_into_split_e02():
    ok, cert = partitionable_into(fixture("E02"), 0, 2)
    assert ok
    sets = sorted(sorted(nodes) for _, nodes in cert)
    assert sets == [["1", "2", "3", "4"], ["5", "6", "7"]]


def test_partitionable_into_mixed_e11():
    ok, cert = partitionable_into(fixture("E11"), 1, 1)
    assert ok
    kinds = sorted(kind for kind, _ in cert)
    assert kinds == ["clique", "independent"]
    by_kind = {kind: nodes for kind, nodes in cert}
    g = fixture("E11")
    adj = adjacency(g)
    for u, v in itertools.combinations(sorted(by_kind["clique"]), 2):
        assert v in adj[u]
    for u, v in itertools.combinations(sorted(by_kind["independent"]), 2):
        assert v not in adj[u]


def test_partitionable_into_validates_as_oracle():
    # brute force over all kind assignments for small graphs
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng, "abcde", p=0.5)
        for ind, clq in ((1, 1), (2, 0), (0, 2)):
            got, cert = partitionable_into(g, ind, clq)
            assert got == _oracle_partition(g, ind, clq), (g, ind, clq)
            if got:
                _check_certificate(g, cert, ind, clq)


def test_partitionable_into_agrees_with_brute_force_up_to_four_nodes():
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            for ind, clq in itertools.product(range(3), repeat=2):
                got, cert = partitionable_into(g, ind, clq)
                assert got == _oracle_partition(g, ind, clq), (g, ind, clq)
                if got:
                    _check_certificate(g, cert, ind, clq)


def test_partitionable_into_five_node_sweep_is_pinned():
    # every answer and certificate over the 5-node graphs, with up to two
    # parts of each kind; the members are written sorted because a
    # frozenset's repr follows string hashing
    lines = []
    for g in enumerate_labeled_graphs(5):
        for ind, clq in itertools.product(range(3), repeat=2):
            ok, cert = partitionable_into(g, ind, clq)
            if cert is not None:
                cert = tuple((kind, sorted(members)) for kind, members in cert)
            lines.append(repr((ok, cert)))
    assert len(lines) == 9216
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "f43486976cd0662b45d05eec6c38d648125535c8"


def _oracle_partition(g, ind, clq):
    nodes = sorted(g.nodes)
    adj = adjacency(g)
    kinds = ["independent"] * ind + ["clique"] * clq
    for assignment in itertools.product(range(len(kinds)), repeat=len(nodes)):
        groups = {}
        for node, slot in zip(nodes, assignment):
            groups.setdefault(slot, []).append(node)
        ok = True
        for slot, members in groups.items():
            for u, v in itertools.combinations(members, 2):
                joined = v in adj[u]
                if kinds[slot] == "clique" and not joined:
                    ok = False
                if kinds[slot] == "independent" and joined:
                    ok = False
        if ok:
            return True
    return False


def _check_certificate(g, cert, ind, clq):
    adj = adjacency(g)
    seen = []
    for kind, members in cert:
        seen.extend(members)
        for u, v in itertools.combinations(sorted(members), 2):
            if kind == "clique":
                assert v in adj[u]
            else:
                assert v not in adj[u]
    assert sorted(seen) == sorted(g.nodes)
    assert sum(1 for kind, _ in cert if kind == "independent") <= ind
    assert sum(1 for kind, _ in cert if kind == "clique") <= clq
