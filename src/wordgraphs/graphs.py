"""Simple undirected graphs: construction, generators, and small-scale checks.

Nodes are strings throughout; integer-named graphs use the decimal
spelling of their node numbers. Every exhaustive check takes an explicit
budget and refuses inputs beyond it rather than running without bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceededError

NODE_BUDGET_DEFAULT = 10
ENUMERATION_BUDGET_DEFAULT = 5


@dataclass(frozen=True)
class Graph:
    """An undirected graph without self-loops.

    Edges are stored as sorted 2-tuples, so any iterable of pairs may be
    passed and equality is independent of input order.
    """

    nodes: frozenset[str] = frozenset()
    edges: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self) -> None:
        nodes = frozenset(self.nodes)
        if not all(isinstance(v, str) for v in nodes):
            raise TypeError("node ids must be strings")
        edges = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in nodes or v not in nodes:
                raise ValueError(f"edge {u!r}-{v!r} leaves the node set")
            edges.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", frozenset(edges))

    def sorted_nodes(self) -> list[str]:
        return sorted(self.nodes)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges)


def adjacency(g: Graph) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in g.nodes}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# serialization

def to_json_dict(g: Graph) -> dict:
    return {
        "nodes": g.sorted_nodes(),
        "edges": [list(e) for e in g.sorted_edges()],
    }


def to_json_text(g: Graph) -> str:
    return json.dumps(to_json_dict(g), sort_keys=True)


def graph_from_json_text(text: str) -> Graph:
    data = json.loads(text)
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ValueError('graph JSON must be an object with "nodes" and "edges"')
    nodes = data["nodes"]
    edges = data["edges"]
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise ValueError('"nodes" and "edges" must be lists')
    for v in nodes:
        if not isinstance(v, str):
            raise ValueError(f"node ids must be strings, got {v!r}")
    pairs = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise ValueError(f"edge entries must be two-element lists, got {e!r}")
        if not all(isinstance(v, str) for v in e):
            raise ValueError(f"edge endpoints must be strings, got {e!r}")
        pairs.append((e[0], e[1]))
    return Graph(nodes, pairs)


def to_edge_list_text(g: Graph) -> str:
    """Edge-list form: one "u v" line per edge plus "node u" for isolated nodes."""
    if "node" in g.nodes:
        raise ValueError('the node id "node" is reserved in edge-list text; use JSON')
    for v in sorted(g.nodes):
        # the reader splits lines on whitespace, so such an id would not come back
        if v.split() != [v]:
            raise ValueError(f"node id {v!r} is empty or holds whitespace in edge-list text; use JSON")
    covered = {v for e in g.edges for v in e}
    lines = [f"{u} {v}" for u, v in g.sorted_edges()]
    lines.extend(f"node {v}" for v in sorted(g.nodes - covered))
    return "\n".join(lines)


def graph_from_edge_list_text(text: str) -> Graph:
    nodes: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "node" and len(parts) == 2:
            nodes.add(parts[1])
        elif len(parts) == 2:
            if parts[0] == parts[1]:
                raise ValueError(f"line {lineno}: self-loop at {parts[0]!r}")
            nodes.update(parts)
            edges.append((parts[0], parts[1]))
        else:
            raise ValueError(f"line {lineno}: expected 'u v' or 'node u', got {raw!r}")
    return Graph(nodes, edges)


def graph_from_text(text: str) -> Graph:
    """Accept either the JSON or the edge-list form."""
    if text.lstrip().startswith("{"):
        return graph_from_json_text(text)
    return graph_from_edge_list_text(text)


# ---------------------------------------------------------------------------
# generators

def _int_nodes(n: int) -> list[str]:
    if n < 0:
        raise ValueError(f"need a non-negative node count, got {n}")
    return [str(i) for i in range(1, n + 1)]


def complete_graph(n: int) -> Graph:
    nodes = _int_nodes(n)
    return Graph(nodes, combinations(nodes, 2))


def empty_graph(n: int) -> Graph:
    return Graph(_int_nodes(n))


def path_graph(n: int) -> Graph:
    nodes = _int_nodes(n)
    return Graph(nodes, zip(nodes, nodes[1:]))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 nodes, got {n}")
    nodes = _int_nodes(n)
    return Graph(nodes, list(zip(nodes, nodes[1:])) + [(nodes[-1], nodes[0])])


def crown_graph(n: int) -> Graph:
    """Complete bipartite graph on [n] + [n] minus the perfect matching x-(x+n)."""
    if n < 1:
        raise ValueError(f"need at least one node per side, got {n}")
    nodes = [str(i) for i in range(1, 2 * n + 1)]
    edges = [
        (str(x), str(y + n))
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if x != y
    ]
    return Graph(nodes, edges)


def _clique_parts(parts: Iterable[Iterable[str]]) -> list[list[str]]:
    """Sorted members of every part; parts must be non-empty and disjoint."""
    seen: set[str] = set()
    cleaned: list[list[str]] = []
    for part in parts:
        members = sorted(part)
        if not members:
            raise ValueError("clique partition parts must be non-empty")
        if len(set(members)) != len(members):
            raise ValueError(f"part {members!r} repeats a node")
        if seen & set(members):
            raise ValueError(f"part {members!r} overlaps an earlier part")
        seen.update(members)
        cleaned.append(members)
    return cleaned


def clique_partition_graph(parts: Iterable[Iterable[str]]) -> Graph:
    """Disjoint union of cliques, one per part."""
    cleaned = _clique_parts(parts)
    edges = [e for part in cleaned for e in combinations(part, 2)]
    return Graph(frozenset(x for part in cleaned for x in part), edges)


_FIXTURE_EDGES: dict[str, tuple[tuple[str, str], ...]] = {
    # the three minimal obstructions for threshold graphs
    "C4": (("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")),
    "2K2": (("1", "2"), ("3", "4")),
    "P4": (("1", "2"), ("2", "3"), ("3", "4")),
    # complete graph used by the two-label expression example
    "K4": (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")),
    # 7-node graph splitting into the two cliques {1,2,3,4} and {5,6,7}
    "E02": (
        ("3", "4"), ("4", "5"), ("5", "6"), ("6", "2"), ("2", "3"),
        ("1", "2"), ("1", "3"), ("1", "4"), ("1", "5"), ("1", "6"),
        ("2", "4"), ("7", "2"), ("7", "4"), ("7", "5"), ("7", "6"),
    ),
    # 7-node graph splitting into the clique {1,2,3,4} and independent {5,6,7}
    "E11": (
        ("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("3", "4"), ("4", "2"),
        ("5", "2"), ("5", "3"), ("6", "3"), ("6", "4"), ("7", "2"), ("7", "4"),
    ),
}


def fixture(name: str) -> Graph:
    key = name.upper()
    if key not in _FIXTURE_EDGES:
        known = ", ".join(sorted(_FIXTURE_EDGES))
        raise ValueError(f"unknown fixture {name!r}; known: {known}")
    edges = _FIXTURE_EDGES[key]
    return Graph(frozenset(v for e in edges for v in e), edges)


def fixture_names() -> list[str]:
    return sorted(_FIXTURE_EDGES)


# ---------------------------------------------------------------------------
# subgraphs and recognition

def induced_subgraph(g: Graph, keep: Iterable[str]) -> Graph:
    members = frozenset(keep)
    if not members <= g.nodes:
        raise ValueError(f"nodes {sorted(members - g.nodes)} are not in the graph")
    return Graph(members, (e for e in g.edges if e[0] in members and e[1] in members))


def _check_node_budget(g: Graph, node_budget: int) -> None:
    """Exhaustive checks refuse graphs beyond their node budget."""
    if len(g.nodes) > node_budget:
        raise BudgetExceededError(f"graph has {len(g.nodes)} nodes, budget is {node_budget}")


def _neighbour_masks(g: Graph) -> list[int]:
    """Bit j of entry i is set when the i-th and j-th sorted nodes are adjacent."""
    index = {v: i for i, v in enumerate(g.sorted_nodes())}
    near: list[list[int]] = [[] for _ in index]
    for u, v in g.edges:
        i, j = index[u], index[v]
        near[i].append(j)
        near[j].append(i)
    return [_mask_of(js) for js in near]


def _mask_of(indices: list[int]) -> int:
    """The bitmask with the given bits set, read in one step from a string
    of binary digits over their span rather than grown one bit at a time."""
    if not indices:
        return 0
    low, top = min(indices), max(indices)
    digits = bytearray(b"0") * (top - low + 1)
    for j in indices:
        digits[top - j] = 49  # "1"
    return int(digits, 2) << low


def _compress(mask: int, sub: Sequence[int]) -> int:
    """`mask` over the positions of `sub` instead of all node indices."""
    return sum(1 << j for j, i in enumerate(sub) if mask >> i & 1)


def _indices(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _twins(adj: Sequence[int]) -> list[tuple[int, int]]:
    """Transpositions (u, v) of consecutive twins, in ascending order of v.

    Twins are vertices with the same neighbours apart from each other, so
    their transposition is an automorphism. Non-adjacent twins share their
    neighbour mask and adjacent ones their closed neighbour mask; no vertex
    has twins of both kinds, so twinship is an equivalence, and u is the
    largest member of v's class below v. The pairs generate every
    permutation within the classes.
    """
    last: dict[int, int] = {}
    pairs = []
    for v, a in enumerate(adj):
        # one dict for both kinds; the low bit tells them apart
        for key in (a << 1, (a | 1 << v) << 1 | 1):
            if key in last:
                pairs.append((last[key], v))
            last[key] = v
    return pairs


def _canonical_form(adj: list[int]) -> tuple[int, int, list[int], list[list[int]]]:
    """(code, automorphisms, order, generators) of the graph with neighbour
    masks `adj`.

    A cell is a set of vertices with the same (degree, sorted neighbour
    degrees); cells take consecutive positions in the order of that key.
    Over the relabelings that keep every vertex among its cell's positions,
    the code is the smallest edge bitmask, where position p appends a row of
    p bits below those of the earlier positions, bit i set when positions i
    and p are adjacent. The key is kept by isomorphisms, so isomorphic
    graphs get the same code, and the relabelings that reach it are one of
    them composed with the automorphisms: their count is |Aut|. `order`
    lists the vertex at each position of one of them.

    The positions are filled one at a time on an explicit stack, and a
    prefix whose rows already exceed the best code's is cut. Each frame
    carries every vertex's row against the positions placed so far, so a
    candidate's row is read, not summed. Of twins (`_twins`), one stands
    for all that are still free, weighted by their number: the
    transposition maps one subtree onto the other.

    `generators` generate the automorphism group, as permutations
    (generator[v] is the image of v): the twin transpositions, then at most
    n - 1 maps from `order` to a later leaf of the same code. Leaves that
    tie `order` come deepest divergence first, so a tie leaving `order` at
    position d is kept only when it joins the orbit of order[d] to another
    under the generators kept so far and the twin transpositions among
    order[d:]; the stabiliser of order[:d] is then generated, level by
    level, which is McKay's search-tree argument.
    """
    n = len(adj)
    if not n:
        return 0, 1, [], []
    degree = [a.bit_count() for a in adj]
    key = []
    for a in adj:
        near = []
        while a:
            low = a & -a
            near.append(degree[low.bit_length() - 1])
            a ^= low
        near.sort()
        key.append((len(near), tuple(near)))
    members: dict[tuple, int] = {}
    for v in range(n):
        members[key[v]] = members.get(key[v], 0) | 1 << v
    cells = [members[key[v]] for v in sorted(range(n), key=key.__getitem__)]
    pairs = _twins(adj)
    # the smallest member of each twin class
    first = list(range(n))
    for u, v in pairs:
        first[v] = first[u]

    def children(p: int, free: int) -> Iterator[Sequence[int]]:
        """(v, number of free twins v stands for) at position p."""
        candidates = _indices(cells[p] & free)
        if not pairs:
            return iter([(v, 1) for v in candidates])
        groups: dict[int, list[int]] = {}
        for v in candidates:
            if first[v] in groups:
                groups[first[v]][1] += 1
            else:
                groups[first[v]] = [v, 1]
        return iter(groups.values())

    width = n * (n - 1) // 2
    best = -1
    count = 0
    best_order: list[int] = []
    found: list[list[int]] = []  # leaf generators, maps from best_order
    orbit: list[int] = []  # union-find over the vertices
    level = n  # the twins of best_order[level:] are joined in `orbit`
    mates: dict[int, int] = {}  # twin class -> a member among best_order[level:]

    def root(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = v = orbit[orbit[v]]
        return v

    placed: list[int] = []
    full = (1 << n) - 1
    # rows[v]: bit i set when v is adjacent to placed[i]
    frames = [(children(0, full), 0, full, 1, [0] * n)]
    while frames:
        kids, code, free, weight, rows = frames[-1]
        p = len(placed)
        shift = width - p * (p + 1) // 2
        for v, size in kids:
            prefix = code << p | rows[v]
            if best >= 0 and prefix > best >> shift:
                continue
            if p + 1 < n:
                placed.append(v)
                rest = free & ~(1 << v)
                grown = rows.copy()
                bit = 1 << p
                near = adj[v] & rest
                while near:
                    low = near & -near
                    grown[low.bit_length() - 1] |= bit
                    near ^= low
                frames.append((children(p + 1, rest), prefix, rest, weight * size, grown))
                break
            if best < 0 or prefix < best:
                best, count, best_order = prefix, weight * size, placed + [v]
                found, orbit, level, mates = [], list(range(n)), n, {}
                continue
            # a leaf of the best code so far: best_order and it differ by an automorphism
            count += weight * size
            d = 0
            while placed[d] == best_order[d]:
                d += 1
            while level > d:
                level -= 1
                b = best_order[level]
                if first[b] in mates:
                    orbit[root(b)] = root(mates[first[b]])
                mates[first[b]] = b
            if root(best_order[d]) != root(placed[d]):
                generator = [0] * n
                for u, w in zip(best_order, placed + [v]):
                    generator[u] = w
                found.append(generator)
                for u, w in enumerate(generator):
                    orbit[root(u)] = root(w)
        else:
            frames.pop()
            if placed:
                placed.pop()
    generators = []
    for u, v in pairs:
        transposition = list(range(n))
        transposition[u], transposition[v] = v, u
        generators.append(transposition)
    return best, count, best_order, generators + found


def contains_induced(g: Graph, h: Graph, *, node_budget: int = NODE_BUDGET_DEFAULT) -> bool:
    """Whether some induced subgraph of g is isomorphic to h (exhaustive)."""
    _check_node_budget(g, node_budget)
    size = len(h.nodes)
    if size > len(g.nodes):
        return False
    target = _canonical_form(_neighbour_masks(h))[0]
    adj = _neighbour_masks(g)
    return any(
        _canonical_form([_compress(adj[i], sub) for i in sub])[0] == target
        for sub in combinations(range(len(adj)), size)
    )


def is_threshold(g: Graph) -> bool:
    """Reduce by repeatedly deleting an isolated node or a universal one.

    The graph is threshold exactly when this reaches the empty graph. A
    graph with an isolated or universal node v is threshold exactly when
    G - v is, so the order of the deletions does not matter.
    """
    return _is_threshold(_neighbour_masks(g))


def _is_threshold(adj: Sequence[int]) -> bool:
    """`is_threshold` on the graph with neighbour masks `adj`."""
    live = (1 << len(adj)) - 1
    while live:
        before = live
        for i, ns in enumerate(adj):
            bit = 1 << i
            if live & bit and (ns & live) in (0, live ^ bit):
                live ^= bit
        if live == before:
            return False
    return True


def is_threshold_by_obstruction(g: Graph, *, node_budget: int = NODE_BUDGET_DEFAULT) -> bool:
    """Threshold test by the forbidden induced subgraphs C4, 2K2 and P4."""
    return not any(
        contains_induced(g, fixture(name), node_budget=node_budget)
        for name in ("C4", "2K2", "P4")
    )


def partitionable_into(
    g: Graph,
    independent_parts: int,
    clique_parts: int,
    *,
    node_budget: int = NODE_BUDGET_DEFAULT,
) -> tuple[bool, tuple[tuple[str, frozenset[str]], ...] | None]:
    """Search for a split of the nodes into the requested number of
    independent sets and cliques; parts may stay empty.

    Returns (ok, certificate) where the certificate lists the non-empty
    parts as (kind, nodes) pairs. Same-kind parts are interchangeable, so
    a node only ever opens the first empty part of each kind.
    """
    if independent_parts < 0 or clique_parts < 0:
        raise ValueError("part counts must be non-negative")
    _check_node_budget(g, node_budget)
    nodes = g.sorted_nodes()
    adj = _neighbour_masks(g)
    kinds = ("independent",) * independent_parts + ("clique",) * clique_parts
    parts = [0] * len(kinds)  # bitmasks over the indices of nodes

    def assign(i: int) -> bool:
        if i == len(nodes):
            return True
        bit = 1 << i
        # the members that keep node i out: its neighbours or its non-neighbours
        barred = {"independent": adj[i], "clique": ~adj[i]}
        opened: set[str] = set()
        for p, kind in enumerate(kinds):
            if not parts[p]:
                if kind in opened:
                    continue
                opened.add(kind)
            if not parts[p] & barred[kind]:
                parts[p] |= bit
                if assign(i + 1):
                    return True
                parts[p] ^= bit
        return False

    if assign(0):
        certificate = tuple(
            (kind, frozenset(v for j, v in enumerate(nodes) if part >> j & 1))
            for kind, part in zip(kinds, parts)
            if part
        )
        return True, certificate
    return False, None


# ---------------------------------------------------------------------------
# counting and enumeration

def bell_number(n: int) -> int:
    """Exact number of partitions of an n-element set, by the Bell triangle."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def set_partitions(items: Iterable) -> Iterator[tuple[tuple, ...]]:
    """All partitions of the items, in a fixed recursive order.

    Each element either joins an existing part or opens a new one, so parts
    keep the input order of their first members.
    """
    seq = list(items)

    def rec(i: int, parts: list[list]):
        if i == len(seq):
            yield tuple(tuple(p) for p in parts)
            return
        x = seq[i]
        for p in parts:
            p.append(x)
            yield from rec(i + 1, parts)
            p.pop()
        parts.append([x])
        yield from rec(i + 1, parts)
        parts.pop()

    yield from rec(0, [])


def _enumeration_nodes(n: int, node_budget: int) -> list[str]:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > node_budget:
        raise BudgetExceededError(f"{n} nodes exceeds the enumeration budget {node_budget}")
    return _int_nodes(n)


def enumerate_labeled_graphs(
    n: int, *, node_budget: int = ENUMERATION_BUDGET_DEFAULT
) -> Iterator[Graph]:
    """All 2^(n choose 2) graphs on nodes "1".."n", in binary-counter order.

    `wg speed` works on isomorphism classes (`_graph_classes`); this labeled
    enumeration is the oracle its tests compare against.
    """
    nodes = _enumeration_nodes(n, node_budget)
    pairs = sorted(combinations(sorted(nodes), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(nodes, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


class _GraphClass(NamedTuple):
    """One isomorphism class on nodes "1".."m", in its canonical labeling.

    Its parents are the classes of its G - v, each with one embedding into
    it, so a word for a parent can be renamed into a word for G - v in this
    class's letters (`representability._speed_layers` extends such words).
    """

    code: int
    # labeled graphs in the class, m!/|Aut|
    labeled: int
    # the classes of its G - v, on m - 1 nodes, in ascending order of code:
    # (code, embedding), where byte i of the embedding is the position in
    # this class's canonical labeling of the parent's canonical vertex i,
    # and the last byte is that of the vertex v deleted to give the parent
    parents: tuple[tuple[int, bytes], ...]
    # neighbour masks, bit j of entry i set when nodes i + 1 and j + 1 are
    # adjacent, and automorphism generators as permutations of range(m);
    # tuples, as the class tower is shared by every sweep in the process
    masks: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]


# The class tower: entry m holds the classes on m nodes. It depends on
# nothing but m, so `_graph_classes` grows it on demand, once per process.
_CLASS_TOWER: list[tuple[_GraphClass, ...]] = [(_GraphClass(0, 1, (), (), ()),)]


def _graph_classes(
    n: int, *, node_budget: int = ENUMERATION_BUDGET_DEFAULT
) -> Iterator[tuple[_GraphClass, ...]]:
    """The isomorphism classes on m nodes for m = 0..n, one tuple per m,
    smallest m first; the labeled counts of a tuple add up to 2^(m choose 2).

    The classes on m nodes are grown from those on m - 1 by joining a new
    vertex to subsets of the old ones, and deduplicated by
    `_canonical_form`. An automorphism pi of the parent maps the growth by
    S onto the growth by pi(S), so only the smallest subset of each orbit
    of the parent's automorphism group (its `_canonical_form` generators)
    is grown; the other subsets give the same classes from the same parent.
    A class's parents are the classes it is grown from: deleting the new
    vertex gives back the parent, and every G - v grows back into G, so
    they are exactly the classes of its G - v; `wg speed` counts a class as
    a non-member without a search when one of them was conclusively
    refuted, and otherwise first tries to extend a parent's word (see
    `representability._speed_layers`). With each parent the class keeps
    where the first growth from it put the parent's canonical vertices and
    the new one: the canonical form of that growth already gives it, so no
    canonical form is computed for it. Each class keeps its canonical masks and
    generators, which are all the word search that sweep runs on it reads,
    and no `Graph`. Each tuple is in ascending order of code.

    The layers live in one store, `_CLASS_TOWER`, shared by every call in
    the process: a call yields the stored layers and grows only those
    not yet stored, each from the one before it, so a second sweep to the
    same size computes no canonical form. A layer is stored only once it
    is complete, so an abandoned or failed call leaves no part of one.
    The arguments are checked before any layer is yielded, however many
    are stored. Only a process that sweeps more than once gains: a single
    `wg speed` starts from the 0-node seed and grows every layer, as
    before. The store keeps every size it has reached until the process
    exits and is never trimmed (tracemalloc: 0.04 MiB up to 5 nodes, 1.2
    MiB up to 7, 14.7 MiB up to 8).
    """
    _enumeration_nodes(n, node_budget)
    for m in range(n + 1):
        if m == len(_CLASS_TOWER):
            _CLASS_TOWER.append(_grow(_CLASS_TOWER[-1], m))
        yield _CLASS_TOWER[m]


def _grow(parents: tuple[_GraphClass, ...], m: int) -> tuple[_GraphClass, ...]:
    """The classes on m nodes, from `parents`, all the classes on m - 1."""
    new = m - 1
    # code -> (canonical neighbour masks, |Aut|, parent code -> embedding,
    # automorphism generators in the canonical labeling)
    grown: dict[int, tuple[tuple[int, ...], int, dict[int, bytes], tuple[tuple[int, ...], ...]]] = {}
    for parent in parents:
        for joined in _orbit_leaders(new, parent.generators):
            masks = [a | (joined >> i & 1) << new for i, a in enumerate(parent.masks)]
            masks.append(joined)
            code, automorphisms, order, generators = _canonical_form(masks)
            position = [0] * m
            for p, v in enumerate(order):
                position[v] = p
            if code not in grown:
                canonical = tuple(_compress(masks[v], order) for v in order)
                relabeled = tuple(tuple(position[g[v]] for v in order) for g in generators)
                grown[code] = (canonical, automorphisms, {}, relabeled)
            # every order that gives the code maps onto the same canonical
            # masks, so the first growth from a parent embeds it
            embeddings = grown[code][2]
            if parent.code not in embeddings:
                embeddings[parent.code] = bytes(position)
    relabelings = factorial(m)
    layer = []
    for code in sorted(grown):
        adj, automorphisms, embeddings, generators = grown[code]
        embedded = tuple(sorted(embeddings.items()))
        layer.append(_GraphClass(code, relabelings // automorphisms, embedded, adj, generators))
    return tuple(layer)


def _orbit_leaders(size: int, generators: Sequence[Sequence[int]]) -> Iterator[int]:
    """The smallest subset of range(size), as a bitmask, in each orbit of
    the group the permutations `generators` generate, in ascending order."""
    seen = bytearray(1 << size)
    images = [[1 << image for image in g] for g in generators]
    for subset in range(1 << size):
        if seen[subset]:
            continue
        seen[subset] = 1
        orbit = [subset]
        while orbit:
            s = orbit.pop()
            for bits in images:
                t = sum(bit for i, bit in enumerate(bits) if s >> i & 1)
                if not seen[t]:
                    seen[t] = 1
                    orbit.append(t)
        yield subset
