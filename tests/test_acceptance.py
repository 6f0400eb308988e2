"""End-to-end checks, one per shipped guarantee. Each test prints a
single "criterion NN <name>: PASS/FAIL" line; run with -s to see them."""

from __future__ import annotations

import hashlib
import itertools
import random
from contextlib import contextmanager

import pytest

from wordgraphs import (
    TWO,
    Connect,
    Create,
    MembershipQuery,
    Rename,
    Union,
    adjacency,
    bell_number,
    block_labels,
    build_expression,
    clique_partition_graph,
    decide_membership,
    enumerate_labeled_graphs,
    eval_expression,
    fixture,
    graph_of_word,
    induced_subgraph,
    is_k_local,
    is_k_local_with,
    is_threshold,
    is_threshold_by_obstruction,
    labels_used,
    locality,
    max_block_count,
    occurrences,
    partitionable_into,
    project,
    represent_clique_partition,
    serialize,
    set_partitions,
    simulate_marking,
    uniformize,
)
from wordgraphs.cliquewidth import RenameCycleError
from wordgraphs.graphs import _canonical_form, _graph_classes, _is_threshold, _neighbour_masks
from wordgraphs.representability import _any_word


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def test_criterion_01_statement_fixtures():
    with criterion(1, "statement-fixtures"):
        assert graph_of_word("analog").sorted_edges() == [
            ("a", "n"),
            ("g", "l"),
            ("g", "n"),
            ("g", "o"),
            ("l", "n"),
            ("l", "o"),
            ("n", "o"),
        ]
        assert graph_of_word("balloon").sorted_edges() == [
            ("a", "b"),
            ("a", "n"),
            ("b", "n"),
        ]
        pepper_rpe = [t.block_count for t in simulate_marking("pepper", ("r", "p", "e"))]
        assert pepper_rpe == [1, 3, 1]
        assert max(pepper_rpe) <= 3
        assert max_block_count("pepper", ("p", "e", "r")) <= 2
        assert locality("pepper")[0] == 2
        assert is_k_local_with("reappear", ("e", "a", "r", "p"), 2)


def test_criterion_02_single_edge_pipeline():
    with criterion(2, "single-edge-pipeline"):
        assert locality("banana") == (2, ("n", "a", "b"))
        trace = simulate_marking("banana", ("n", "a", "b"))
        assert block_labels(trace[0], 2) == {"n": (1, 1)}
        assert block_labels(trace[1], 2) == {"a": TWO, "n": TWO}
        assert block_labels(trace[2], 2) == {"a": TWO, "b": (1, 0), "n": TWO}
        expr = build_expression("banana", ("n", "a", "b"), 2)
        assert serialize(expr) == (
            '(rename (0 0) (1 0) (union (create (0 0) "b") '
            '(rename (0 0) two (rename (1 1) two (connect (1 1) (0 0) '
            '(union (create (0 0) "a") (rename (0 0) (1 1) (create (0 0) "n"))))))))'
        )
        out = eval_expression(expr)
        assert out.graph.nodes == frozenset("abn")
        assert out.graph.sorted_edges() == [("a", "n")]
        assert out.labels == {"a": TWO, "b": (1, 0), "n": TWO}


def test_criterion_03_two_label_complete_graph():
    with criterion(3, "two-label-complete-graph"):
        one, two_ = (0,), (1,)
        half = lambda x, y: Connect(one, two_, Union(Create(one, x), Create(two_, y)))
        expr = Connect(
            one,
            two_,
            Union(
                Rename(two_, one, half("a", "b")),
                Rename(one, two_, half("c", "d")),
            ),
        )
        out = eval_expression(expr)
        assert out.graph == fixture("K4")
        assert labels_used(expr) == frozenset({one, two_})
        assert out.labels == {"a": one, "b": one, "c": two_, "d": two_}


def one_local_word(letters, masks, generators):
    """The search decide's L,1 threshold cut skips: any 1-local word with at
    most two copies of each letter, up to the complete length 2n."""
    found = _any_word(masks, generators, 2, 1, 2 * len(masks))
    return None if found is None else [letters[i] for i in found]


def check_one_local_classes(sizes):
    # every isomorphism class on these sizes: the word search's answer is
    # the threshold test's, and a word found represents the class
    for m, layer in enumerate(_graph_classes(max(sizes), node_budget=max(sizes))):
        if m not in sizes:
            continue
        letters = [chr(i) for i in range(m)]
        for cls in layer:
            found = one_local_word(letters, cls.masks, cls.generators)
            assert (found is not None) == _is_threshold(cls.masks), (m, cls.code)
            if found is not None:
                assert is_k_local(found, 1)
                assert _neighbour_masks(graph_of_word(found)) == list(cls.masks), (m, cls.code)


def test_criterion_04_one_local_equals_threshold():
    # decide's L,1 "no" is the threshold test itself, so the claim is checked
    # against the exhaustive word search instead
    with criterion(4, "one-local-equals-threshold"):
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                masks = _neighbour_masks(g)
                found = one_local_word(g.sorted_nodes(), masks, _canonical_form(masks)[3])
                assert (found is not None) == is_threshold(g), g
                if found is not None:
                    assert is_k_local(found, 1) and graph_of_word(found) == g, g
                if n <= 4:
                    assert is_threshold(g) == is_threshold_by_obstruction(g), g
                    member, witness = decide_membership(MembershipQuery(graph=g, class_kind="L", k=1))
                    assert member == is_threshold(g), g
                    if member:
                        assert graph_of_word(witness) == g


def test_criterion_04_one_local_equals_threshold_extended():
    with criterion(4, "one-local-equals-threshold (n=5, classes up to n=6)"):
        lines = []
        for g in enumerate_labeled_graphs(5, node_budget=5):
            member, witness = decide_membership(
                MembershipQuery(graph=g, class_kind="L", k=1, node_budget=5)
            )
            assert member == is_threshold(g), g
            lines.append(f"L 1 {g.sorted_edges()} {member} {witness}")
        # a faster search must reproduce every witness byte for byte
        digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
        assert digest == "8238e5bb279729aebc4c827fa58ccd539cc30aee"
        check_one_local_classes(range(7))


@pytest.mark.slow
def test_criterion_04_one_local_equals_threshold_at_seven_nodes():
    # the 1,044 classes on 7 nodes, 64 of them threshold
    with criterion(4, "one-local-equals-threshold (classes at n=7)"):
        check_one_local_classes(range(7, 8))


def test_criterion_05_oversized_letters_never_alternate():
    with criterion(5, "oversized-letters-never-alternate"):
        for n in range(1, 9):
            for combo in itertools.product("abcd", repeat=n):
                word = "".join(combo)
                k, _ = locality(word)
                over = [c for c, m in occurrences(word).items() if m > k + 1]
                if not over:
                    continue
                adj = adjacency(graph_of_word(word))
                for c in over:
                    assert not adj[c], (word, k, c)


def test_criterion_06_occurrence_cap_round_trip():
    with criterion(6, "occurrence-cap-round-trip"):
        rng = random.Random(20260819)
        checked = 0
        while checked < 10_000:
            length = rng.randrange(1, 13)
            letters = "abcdef"[: rng.randrange(1, 7)]
            word = "".join(rng.choice(letters) for _ in range(length))
            k = rng.randrange(1, 4)
            sigma = tuple(sorted(set(word)))
            shuffled = list(sigma)
            rng.shuffle(shuffled)
            if is_k_local_with(word, tuple(shuffled), k):
                sigma = tuple(shuffled)
            elif not is_k_local_with(word, (found := locality(word)[1]), k):
                continue
            else:
                sigma = found
            new_word, new_sigma = uniformize(word, k, sigma)
            assert is_k_local_with(new_word, new_sigma, k), (word, sigma, k)
            assert all(m <= k + 1 for m in occurrences(new_word).values())
            assert graph_of_word(new_word) == graph_of_word(word)
            checked += 1
        assert checked == 10_000


def test_criterion_07_local_implies_bounded_copies():
    with criterion(7, "local-implies-bounded-copies"):
        for n in range(1, 5):
            for g in enumerate_labeled_graphs(n):
                for k in (1, 2):
                    in_local, _ = decide_membership(
                        MembershipQuery(graph=g, class_kind="L", k=k)
                    )
                    if not in_local:
                        continue
                    in_bounded, _ = decide_membership(
                        MembershipQuery(graph=g, class_kind="R", k=k + 1)
                    )
                    assert in_bounded, (g, k)


def test_criterion_08_clique_partition_lower_bound():
    with criterion(8, "clique-partition-lower-bound"):
        partitions = list(set_partitions(["a", "b", "c", "d"]))
        assert len(partitions) == bell_number(4) == 15
        graphs = set()
        for parts in partitions:
            word, sigma = represent_clique_partition(parts)
            assert max_block_count(word, sigma) <= 2, parts
            g = graph_of_word(word)
            assert g == clique_partition_graph(parts)
            graphs.add(g)
        assert len(graphs) == 15


def test_criterion_09_expression_corpus():
    with criterion(9, "expression-corpus"):
        count = 0
        texts = hashlib.sha1()
        for n in range(1, 8):
            for combo in itertools.product("abc", repeat=n):
                word = "".join(combo)
                k, sigma = locality(word)
                try:
                    expr = build_expression(word, sigma, k)
                except RenameCycleError:
                    raise AssertionError(f"rename cycle for {word!r}")
                assert len(labels_used(expr)) <= 2 ** k + 1, word
                assert eval_expression(expr).graph == graph_of_word(word), word
                texts.update((serialize(expr) + "\n").encode())
                count += 1
        assert count == 3279
        # every expression's text, in loop order, as the recursive writer gave it
        assert texts.hexdigest() == "772609e165cd32ac6f4515765a428d5dae2f3bf0"


def test_criterion_10_projection_hereditarity():
    with criterion(10, "projection-hereditarity"):
        rng = random.Random(97)
        for _ in range(1000):
            length = rng.randrange(1, 11)
            letters = "abcd"[: rng.randrange(1, 5)]
            word = "".join(rng.choice(letters) for _ in range(length))
            sigma = sorted(set(word))
            rng.shuffle(sigma)
            sigma = tuple(sigma)
            full = {t.letter: t.block_count for t in simulate_marking(word, sigma)}
            g = graph_of_word(word)
            for r in range(len(sigma) + 1):
                for keep in itertools.combinations(sorted(sigma), r):
                    sub_word = project(word, set(keep))
                    assert graph_of_word(sub_word) == induced_subgraph(g, set(keep))
                    sub_sigma = tuple(c for c in sigma if c in keep)
                    for t in simulate_marking(sub_word, sub_sigma):
                        assert t.block_count <= full[t.letter], (word, sigma, keep)


def test_criterion_11_split_certificates():
    with criterion(11, "split-certificates"):
        ok, cert = partitionable_into(fixture("E02"), 0, 2)
        assert ok
        assert sorted(sorted(part) for _, part in cert) == [
            ["1", "2", "3", "4"],
            ["5", "6", "7"],
        ]
        assert all(kind == "clique" for kind, _ in cert)

        e11 = fixture("E11")
        ok, cert = partitionable_into(e11, 1, 1)
        assert ok
        adj = adjacency(e11)
        for kind, part in cert:
            for u, v in itertools.combinations(sorted(part), 2):
                assert (v in adj[u]) == (kind == "clique"), (kind, u, v)
        # the drawn colouring: clique on 1-4, independent set on 5-7
        for u, v in itertools.combinations("1234", 2):
            assert v in adj[u]
        for u, v in itertools.combinations("567", 2):
            assert v not in adj[u]
