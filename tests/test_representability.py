from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from wordgraphs import (
    MembershipQuery,
    adjacency,
    clique_partition_graph,
    complete_graph,
    decide_membership,
    empty_graph,
    fixture,
    graph_of_word,
    is_k_local,
    is_k_local_with,
    locality,
    max_block_count,
    occurrences,
    oversized_letters,
    path_graph,
    represent_clique_partition,
    uniformize,
)
from wordgraphs import representability
from wordgraphs.errors import BudgetExceededError
from wordgraphs.graphs import Graph, _canonical_form, _neighbour_masks, _twins, enumerate_labeled_graphs
from wordgraphs.representability import _clique_number, _search_exact_length


def random_local_word(rng, max_alpha=4, max_len=12):
    n = rng.randrange(1, max_len + 1)
    letters = "abcd"[: rng.randrange(1, max_alpha + 1)]
    return "".join(rng.choice(letters) for _ in range(n))


def test_oversized_letters_basics():
    assert oversized_letters("aaaa", 1, ("a",)) == frozenset("a")
    assert oversized_letters("ab", 1, ("a", "b")) == frozenset()
    # finds its own witness when none is given
    assert oversized_letters("aaaa", 1) == frozenset("a")


def test_oversized_letters_rejects_bad_witness():
    with pytest.raises(ValueError):
        oversized_letters("pepper", 1, ("p", "e", "r"))
    with pytest.raises(ValueError):
        oversized_letters("pepper", 1)


def test_oversized_letters_never_alternate_exhaustively():
    # every k-local word, length <= 6 over <= 3 letters: a letter beyond
    # k + 1 copies has no incident edge
    for n in range(1, 7):
        for combo in itertools.product("abc", repeat=n):
            word = "".join(combo)
            k, sigma = locality(word)
            over = oversized_letters(word, k, sigma)
            for c in over:
                assert occurrences(word)[c] > k + 1


def test_uniformize_frozen_examples():
    assert uniformize("aaaa", 1, ("a",)) == ("aa", ("a",))
    assert uniformize("abaaa", 1, ("b", "a")) == ("aab", ("b", "a"))
    assert uniformize("pepper", 2, ("e", "p", "r")) == ("pepper", ("e", "p", "r"))


def test_uniformize_rejects_non_witness():
    with pytest.raises(ValueError):
        uniformize("pepper", 1, ("p", "e", "r"))


def test_uniformize_postconditions_random():
    rng = random.Random(71)
    checked = 0
    while checked < 500:
        word = random_local_word(rng)
        k = rng.randrange(1, 4)
        if not is_k_local(word, k):
            continue
        _, sigma = locality(word)
        assert is_k_local_with(word, sigma, k)
        new_word, new_sigma = uniformize(word, k, sigma)
        assert graph_of_word(new_word) == graph_of_word(word)
        assert all(m <= k + 1 for m in occurrences(new_word).values())
        assert is_k_local_with(new_word, new_sigma, k)
        checked += 1


def test_represent_clique_partition_frozen_examples():
    assert represent_clique_partition([["a", "b"], ["c", "d"]]) == (
        "abcdcdab",
        ("c", "d", "a", "b"),
    )
    assert represent_clique_partition([["a", "b", "c"]]) == ("abcabc", ("a", "b", "c"))
    assert represent_clique_partition([["a"]]) == ("aa", ("a",))


def test_represent_clique_partition_postconditions():
    rng = random.Random(73)
    for _ in range(100):
        pool = [f"x{i}" for i in range(rng.randrange(1, 7))]
        rng.shuffle(pool)
        parts = []
        while pool:
            take = rng.randrange(1, len(pool) + 1)
            parts.append(pool[:take])
            pool = pool[take:]
        word, sigma = represent_clique_partition(parts)
        assert graph_of_word(word) == clique_partition_graph(parts)
        assert max_block_count(word, sigma) <= 2
        assert all(m == 2 for m in occurrences(word).values())


def test_represent_clique_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        represent_clique_partition([])
    with pytest.raises(ValueError):
        represent_clique_partition([[]])
    with pytest.raises(ValueError):
        represent_clique_partition([["a"], ["a"]])


def test_decide_trivial_memberships():
    ok, witness = decide_membership(
        MembershipQuery(graph=complete_graph(4), class_kind="R", k=1)
    )
    assert ok and witness == "1234"
    ok, witness = decide_membership(
        MembershipQuery(graph=empty_graph(3), class_kind="R", k=2)
    )
    assert ok and graph_of_word(witness) == empty_graph(3)
    ok, witness = decide_membership(
        MembershipQuery(graph=Graph(frozenset(), frozenset()), class_kind="L", k=1)
    )
    assert ok and witness == ""


def test_decide_known_negatives():
    assert decide_membership(
        MembershipQuery(graph=empty_graph(2), class_kind="R", k=1)
    ) == (False, None)
    # threshold obstructions have no 1-local word
    for name in ("C4", "2K2", "P4"):
        assert decide_membership(
            MembershipQuery(graph=fixture(name), class_kind="L", k=1)
        ) == (False, None)


def test_decide_witness_is_shortest_then_smallest():
    ok, witness = decide_membership(
        MembershipQuery(graph=fixture("2K2"), class_kind="L", k=2)
    )
    assert ok and witness == "121234"
    assert graph_of_word(witness) == fixture("2K2")
    assert is_k_local(witness, 2)
    ok, witness = decide_membership(
        MembershipQuery(graph=path_graph(3), class_kind="L", k=1)
    )
    assert ok
    assert graph_of_word(witness) == path_graph(3)
    assert is_k_local(witness, 1)


def test_decide_witness_postconditions_random():
    rng = random.Random(79)
    for _ in range(60):
        nodes = [str(i + 1) for i in range(rng.randrange(1, 5))]
        edges = [p for p in itertools.combinations(nodes, 2) if rng.random() < 0.5]
        g = Graph(nodes, edges)
        k = rng.randrange(1, 3)
        kind = rng.choice(("L", "R"))
        ok, witness = decide_membership(MembershipQuery(graph=g, class_kind=kind, k=k))
        if not ok:
            continue
        assert graph_of_word(witness) == g
        if kind == "R":
            assert all(m <= k for m in occurrences(witness).values())
        else:
            assert is_k_local(witness, k)


def test_decide_agrees_with_brute_force():
    # enumerate every word up to the complete bound directly
    def brute(g, kind, k):
        letters = g.sorted_nodes()
        maxc = k if kind == "R" else k + 1
        for length in range(len(letters), maxc * len(letters) + 1):
            for combo in itertools.product(letters, repeat=length):
                if any(m > maxc for m in occurrences(combo).values()):
                    continue
                if set(combo) != set(letters):
                    continue
                word = "".join(combo)
                if graph_of_word(word) != g:
                    continue
                if kind == "L" and not is_k_local(word, k):
                    continue
                return True, word
        return False, None

    rng = random.Random(83)
    for _ in range(25):
        nodes = [str(i + 1) for i in range(rng.randrange(1, 4))]
        edges = [p for p in itertools.combinations(nodes, 2) if rng.random() < 0.5]
        g = Graph(nodes, edges)
        k = rng.randrange(1, 3)
        kind = rng.choice(("L", "R"))
        assert decide_membership(
            MembershipQuery(graph=g, class_kind=kind, k=k)
        ) == brute(g, kind, k)


def test_decide_sweep_witnesses_are_pinned():
    # every answer and witness of the 4-node sweeps, hashed; a faster search
    # must reproduce them byte for byte
    lines = []
    for kind, k in (("R", 1), ("R", 2), ("L", 1), ("L", 2)):
        for g in enumerate_labeled_graphs(4):
            member, witness = decide_membership(MembershipQuery(graph=g, class_kind=kind, k=k))
            lines.append(f"{kind} {k} {g.sorted_edges()} {member} {witness}")
    assert len(lines) == 256
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "64a1b7fd3668451efe7620617ef40f9f3794e38e"


def test_decide_five_node_sweep_witnesses_are_pinned():
    # every answer and witness of the 5-node R,2 and L,2 sweeps, hashed; a
    # faster search must reproduce them byte for byte
    lines = []
    for kind, k in (("R", 2), ("L", 2)):
        for g in enumerate_labeled_graphs(5):
            member, witness = decide_membership(MembershipQuery(graph=g, class_kind=kind, k=k))
            lines.append(f"{kind} {k} {g.sorted_edges()} {member} {witness}")
    assert len(lines) == 2048
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "c04089b1b7e9ad1265ca039aa5f2299d2a0b36ef"


def test_decide_five_node_witnesses_across_classes_and_caps_are_pinned():
    # every 5-node answer, witness and budget message of R,1, R,3 and L,3
    # uncapped, of R,2, L,2 and L,1 capped at 9 letters and of R,3 capped
    # at 7, hashed; a change to the search must reproduce them byte for byte
    lines = []
    runs = (("R", 1, None), ("R", 3, None), ("L", 3, None), ("R", 2, 9), ("L", 2, 9), ("L", 1, 9), ("R", 3, 7))
    for kind, k, cap in runs:
        for g in enumerate_labeled_graphs(5):
            try:
                r = decide_membership(MembershipQuery(graph=g, class_kind=kind, k=k, max_len=cap))
            except BudgetExceededError as e:
                r = f"budget: {e}"
            lines.append(f"{kind} {k} {cap} {g.sorted_edges()} {r}")
    assert len(lines) == 7168
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "e0b34a851a430040eb26843e115603d72ca24ef5"


def test_lex_leader_search_agrees_with_the_unpruned_search():
    # the symmetry cut may only skip renamings: at every length up to the
    # complete bound, with twin transpositions, with the canonical-form
    # generators and with every automorphism, the search returns what the
    # search without symmetries returns; so do the windows `wg speed`
    # searches, from 2n - omega or one more to that bound, with the
    # canonical-form generators. A window finds a word exactly when one of
    # its lengths does, and the word represents the graph, for class L as a
    # k-local word
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            letters = g.sorted_nodes()
            adj = _neighbour_masks(g)
            automorphisms = [
                list(perm)
                for perm in itertools.permutations(range(n))
                if all(adj[perm[v]] == sum(1 << perm[u] for u in range(n) if adj[v] >> u & 1) for v in range(n))
            ]
            symmetries = [
                (_twins(adj), []),
                ([], _canonical_form(adj)[3]),
                ([], automorphisms),
            ]
            none = ([], [])
            for kind, k in (("R", 1), ("R", 2), ("R", 3), ("L", 1), ("L", 2)):
                maxc = k if kind == "R" else k + 1
                local_k = None if kind == "R" else k
                top = maxc * n
                exact = []
                for length in range(top + 1):
                    args = (adj, maxc, local_k, length, length)
                    exact.append(_search_exact_length(*args, *none))
                    for symmetry in symmetries:
                        assert _search_exact_length(*args, *symmetry) == exact[-1], (g, kind, k, length)
                shortest = 2 * n - _clique_number(adj)
                assert all(word is None for word in exact[:shortest])
                for lo in range(shortest, min(shortest + 2, top + 1)):
                    args = (adj, maxc, local_k, lo, top)
                    found = _search_exact_length(*args, *none)
                    assert _search_exact_length(*args, *symmetries[1]) == found, (g, kind, k, lo)
                    assert (found is None) == all(word is None for word in exact[lo:]), (g, kind, k, lo)
                    if found is not None:
                        found = [letters[i] for i in found]
                        assert lo <= len(found) <= top and graph_of_word(found) == g, (g, kind, k, found)
                        assert local_k is None or is_k_local(found, local_k)


def test_lex_leader_leaf_checks_are_pinned(monkeypatch):
    # machine-independent. Uncapped, the labeled L,1 sweep on 5 nodes checks
    # locality once per member: every "no" is the threshold test. Capped at
    # 2n - 1 = 9 letters it runs the search for every graph, with the same
    # answers, and checks locality at 17,603 leaves, against 34,934 without
    # the symmetry cut (the labeled L,2 sweep checks 1,024 either way: the
    # first word each graph completes is 2-local)
    calls = []
    real = representability.is_k_local

    def counted(word, k, **kwargs):
        calls.append(len(word))
        return real(word, k, **kwargs)

    monkeypatch.setattr(representability, "is_k_local", counted)
    for max_len, leaves in ((None, 332), (9, 17603)):
        calls.clear()
        members = sum(
            decide_membership(MembershipQuery(graph=g, class_kind="L", k=1, max_len=max_len))[0]
            for g in enumerate_labeled_graphs(5)
        )
        assert (members, len(calls)) == (332, leaves), max_len


def test_decide_l1_threshold_cut_leaves_capped_answers_alone():
    # 2K2, C4 and P4, alone and with an isolated vertex: below the
    # obstruction's complete length 8 the search cannot conclude and raises,
    # from 8 on it (or, from 2n on, the threshold test) answers no
    for name in ("2K2", "C4", "P4"):
        obstruction = fixture(name)
        for g in (obstruction, Graph([*obstruction.nodes, "z"], obstruction.edges)):
            complete = 2 * len(g.nodes)
            for max_len in [*range(complete + 2), None]:
                query = MembershipQuery(graph=g, class_kind="L", k=1, max_len=max_len)
                if max_len is not None and max_len < 8:
                    with pytest.raises(BudgetExceededError) as raised:
                        decide_membership(query)
                    assert str(raised.value) == f"no word up to length {max_len}, but only {complete} is conclusive"
                else:
                    assert decide_membership(query) == (False, None), (name, g, max_len)


def test_clique_number_matches_brute_force():
    for g in enumerate_labeled_graphs(5):
        nodes = g.sorted_nodes()
        neighbours = adjacency(g)
        masks = [sum(1 << j for j, v in enumerate(nodes) if v in neighbours[u]) for u in nodes]
        brute = max(
            size
            for size in range(len(nodes) + 1)
            for clique in itertools.combinations(nodes, size)
            if all(v in neighbours[u] for u, v in itertools.combinations(clique, 2))
        )
        assert _clique_number(masks) == brute, g
    assert _clique_number([]) == 0


def test_decide_budget_counts_only_conclusive_subgraph_refutations():
    # 2K2 plus an isolated vertex: the 2K2 is refuted only by searching words
    # up to its complete length 8, so a cap of 7 cannot settle it
    g = Graph(["1", "2", "3", "4", "5"], [("1", "2"), ("3", "4")])
    with pytest.raises(BudgetExceededError):
        decide_membership(MembershipQuery(graph=g, class_kind="L", k=1, max_len=7))
    assert decide_membership(
        MembershipQuery(graph=g, class_kind="L", k=1, max_len=8)
    ) == (False, None)


def test_decide_budgets():
    with pytest.raises(BudgetExceededError):
        decide_membership(MembershipQuery(graph=complete_graph(6), class_kind="R", k=1))
    ok, _ = decide_membership(
        MembershipQuery(graph=complete_graph(6), class_kind="R", k=1, node_budget=6)
    )
    assert ok
    # a length cap below the conclusive bound must not report a hard no
    with pytest.raises(BudgetExceededError):
        decide_membership(
            MembershipQuery(graph=empty_graph(3), class_kind="R", k=2, max_len=4)
        )
    ok, witness = decide_membership(
        MembershipQuery(graph=empty_graph(3), class_kind="R", k=2, max_len=5)
    )
    assert ok and witness == "11223"


@pytest.mark.parametrize("field", ["node_budget", "max_len"])
@pytest.mark.parametrize("n", [0, 2])
def test_decide_rejects_negative_budgets(field, n):
    query = MembershipQuery(graph=empty_graph(n), class_kind="R", k=2, **{field: -1})
    with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
        decide_membership(query)


def test_decide_zero_max_len_is_a_cap():
    with pytest.raises(BudgetExceededError):
        decide_membership(MembershipQuery(graph=empty_graph(2), class_kind="R", k=2, max_len=0))
    assert decide_membership(
        MembershipQuery(graph=empty_graph(0), class_kind="R", k=2, max_len=0)
    ) == (True, "")


def test_decide_rejects_bad_queries():
    with pytest.raises(ValueError):
        decide_membership(MembershipQuery(graph=empty_graph(1), class_kind="X", k=1))
    with pytest.raises(ValueError):
        decide_membership(MembershipQuery(graph=empty_graph(1), class_kind="R", k=0))
