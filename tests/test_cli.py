from __future__ import annotations

import argparse
import hashlib
import itertools
import json
from collections import Counter

import pytest

from wordgraphs import (
    Connect,
    Create,
    Union,
    clique_partition_graph,
    graph_from_json_text,
    represent_clique_partition,
    serialize,
)
import wordgraphs.cli as cli
import wordgraphs.graphs as graphs
import wordgraphs.representability as representability
from wordgraphs.cli import main
from wordgraphs.errors import BudgetExceededError
from wordgraphs.graphs import (
    Graph,
    _canonical_form,
    _graph_classes,
    _neighbour_masks,
    bell_number,
    empty_graph,
    enumerate_labeled_graphs,
    fixture,
    is_threshold,
)
from wordgraphs.locality import is_k_local
from wordgraphs.representability import MembershipQuery, _speed_layers, decide_membership
from wordgraphs.words import graph_of_word

from test_graphs import class_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_edge_list(capsys):
    code, out, _ = run(capsys, "graph", "balloon")
    assert code == 0
    assert out == "a b\na n\nb n\nnode l\nnode o\n"
    # a space is a letter of the word but cannot be an edge-list node id
    code, out, err = run(capsys, "graph", "a b")
    assert (code, out) == (2, "")
    assert "use JSON" in err


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "balloon", "--json")
    assert code == 0
    assert out == '{"edges": [["a", "b"], ["a", "n"], ["b", "n"]], "nodes": ["a", "b", "l", "n", "o"]}\n'


def test_graph_tokens(capsys):
    code, out, _ = run(capsys, "graph", "x1 y x1 y", "--tokens", "--json")
    assert code == 0
    assert json.loads(out) == {"nodes": ["x1", "y"], "edges": [["x1", "y"]]}


def test_locality_search(capsys):
    code, out, _ = run(capsys, "locality", "pepper")
    assert code == 0
    assert out == "2 (witness: e,p,r)\n"


def test_locality_with_sigma(capsys):
    code, out, _ = run(capsys, "locality", "pepper", "--sigma", "r,p,e")
    assert code == 0
    assert out == "3 (sigma: r,p,e)\n"


def test_locality_json_is_byte_stable(capsys):
    code, out, _ = run(capsys, "locality", "banana", "--json")
    assert code == 0
    assert out == '{"locality": 2, "witness": ["n", "a", "b"], "word": "banana"}\n'
    code, again, _ = run(capsys, "locality", "banana", "--json")
    assert again == out


def test_check_with_sigma_prints_stage_trace(capsys):
    code, out, _ = run(capsys, "check", "reappear", "--k", "2", "--sigma", "e,a,r,p")
    assert code == 0
    assert out.splitlines() == [
        "stage 1: mark 'e' -> 2 block(s): [2..2][6..6]",
        "stage 2: mark 'a' -> 2 block(s): [2..3][6..7]",
        "stage 3: mark 'r' -> 2 block(s): [1..3][6..8]",
        "stage 4: mark 'p' -> 1 block(s): [1..8]",
        "2-local: yes (max block count 2)",
    ]


def test_check_failure_exits_one(capsys):
    code, out, _ = run(capsys, "check", "pepper", "--k", "1")
    assert code == 1
    assert out == "1-local: no\n"


def test_check_sigma_failure_exits_one(capsys):
    code, out, _ = run(capsys, "check", "pepper", "--k", "2", "--sigma", "r,p,e")
    assert code == 1
    assert out.endswith("2-local: no (max block count 3)\n")


def test_uniformize(capsys):
    code, out, _ = run(capsys, "uniformize", "abaaa", "--k", "1", "--sigma", "b,a")
    assert code == 0
    assert out == "word: aab\nsigma: b,a\n"


def test_uniformize_json(capsys):
    code, out, _ = run(capsys, "uniformize", "aaaa", "--k", "1", "--sigma", "a", "--json")
    assert code == 0
    assert json.loads(out) == {
        "input_word": "aaaa",
        "input_sigma": ["a"],
        "k": 1,
        "word": "aa",
        "sigma": ["a"],
    }


def test_decide_from_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"nodes": ["1", "2", "3", "4"], "edges": [["1", "2"], ["3", "4"]]}')
    code, out, _ = run(capsys, "decide", "--graph", str(path), "--class", "L", "--k", "2")
    assert code == 0
    assert out == "member: yes\nwitness: 121234\n"


def test_decide_negative_exits_one(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2\n2 3\n3 4\n1 4\n")
    code, out, _ = run(capsys, "decide", "--graph", str(path), "--class", "L", "--k", "1")
    assert code == 1
    assert out == "member: no\n"


def test_decide_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "decide", "--graph", "/no/such/file", "--class", "L", "--k", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text",
    [
        '{"nodes": [1, 2], "edges": []}',
        '{"nodes": [["a"]], "edges": []}',
        '{"nodes": ["a", "b"], "edges": [["a", ["b"]]]}',
    ],
)
@pytest.mark.parametrize("verb", [["decide", "--class", "R", "--k", "1"], ["threshold"]])
def test_non_string_node_ids_exit_two(capsys, tmp_path, text, verb):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run(capsys, *verb, "--graph", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_decide_node_budget_exits_three(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("\n".join(f"node {i}" for i in range(1, 8)))
    code, _, err = run(capsys, "decide", "--graph", str(path), "--class", "R", "--k", "2")
    assert code == 3
    assert err.startswith("error:")


def test_decide_env_budget(capsys, tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    path.write_text("\n".join(f"node {i}" for i in range(1, 7)))
    monkeypatch.setenv("WG_BUDGET_NODES", "6")
    code, out, _ = run(capsys, "decide", "--graph", str(path), "--class", "R", "--k", "2")
    assert code == 0
    # the flag wins over the environment
    monkeypatch.setenv("WG_BUDGET_NODES", "3")
    code, _, _ = run(capsys, "decide", "--graph", str(path), "--class", "R", "--k", "2", "--budget-nodes", "6")
    assert code == 0
    code, _, _ = run(capsys, "decide", "--graph", str(path), "--class", "R", "--k", "2")
    assert code == 3


def test_decide_class_l_leaf_check_is_within_node_budget(capsys, tmp_path):
    # decide has no letter budget: the nodes it admits are the letters its
    # k-locality leaf check may use, also beyond the default of 12
    code, graph, _ = run(capsys, "gen", "complete", "13")
    assert code == 0
    path = tmp_path / "k13.json"
    path.write_text(graph)
    code, out, err = run(
        capsys, "decide", "--graph", str(path), "--class", "L", "--k", "1", "--budget-nodes", "13"
    )
    assert (code, err) == (0, "")
    assert out == "member: yes\nwitness: 1 10 11 12 13 2 3 4 5 6 7 8 9\n"


def test_decide_takes_a_thousand_node_clique_within_its_budget(capsys, tmp_path):
    # the clique and word searches keep explicit stacks: a thousand members
    # and a thousand positions are far beyond the recursion limit
    code, graph, _ = run(capsys, "gen", "complete", "1000")
    assert code == 0
    path = tmp_path / "k1000.json"
    path.write_text(graph)
    code, out, err = run(
        capsys, "decide", "--graph", str(path), "--class", "L", "--k", "1", "--budget-nodes", "1000"
    )
    assert (code, err) == (0, "")
    assert out == f"member: yes\nwitness: {' '.join(sorted(map(str, range(1, 1001))))}\n"


def test_decide_refutes_a_thousand_node_path_by_the_threshold_test(capsys, tmp_path):
    # P1000 is not a threshold graph, so an uncapped L,1 query answers no
    # without a word search
    code, graph, _ = run(capsys, "gen", "path", "1000")
    assert code == 0
    path = tmp_path / "p1000.json"
    path.write_text(graph)
    code, out, err = run(
        capsys, "decide", "--graph", str(path), "--class", "L", "--k", "1", "--budget-nodes", "1000", "--json"
    )
    assert (code, err) == (1, "")
    assert json.loads(out)["member"] is False


def test_bad_env_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("WG_BUDGET_LETTERS", "many")
    code, _, err = run(capsys, "locality", "abc")
    assert code == 2
    assert "WG_BUDGET_LETTERS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("locality", "a", "--sigma", ""),
        ("check", "ab", "--k", "1", "--sigma", ""),
        ("check", "a b", "--k", "1", "--sigma", " ,a,,b"),
    ],
)
def test_empty_sigma_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "marking sequence" in err


def test_whitespace_letter_witness_reads_back(capsys):
    # a part that is all whitespace is that letter, so every witness
    # `locality --json` prints is a sequence `--sigma` reads back
    for n in range(1, 6):
        for letters in itertools.product("ab \t", repeat=n):
            word = "".join(letters)
            code, out, _ = run(capsys, "locality", word, "--json")
            assert code == 0, word
            payload = json.loads(out)
            k, sigma = payload["locality"], ",".join(payload["witness"])
            code, out, err = run(capsys, "check", word, "--k", str(k), "--sigma", sigma, "--json")
            assert (code, err) == (0, ""), word
            assert json.loads(out)["max_block_count"] == k, word
            code, _, err = run(capsys, "cwd", "verify", word, "--sigma", sigma, "--k", str(k))
            assert (code, err) == (0, ""), word


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize(
    "verb, flag",
    [
        (("locality", "abc"), "--budget-letters"),
        (("check", "abc", "--k", "1"), "--budget-letters"),
        (("decide", "--graph", "GRAPH", "--class", "L", "--k", "1"), "--budget-nodes"),
        (("decide", "--graph", "GRAPH", "--class", "L", "--k", "1"), "--budget-len"),
        (("threshold", "--graph", "GRAPH"), "--budget-nodes"),
        (("speed", "--class", "L", "--k", "1", "--n", "3"), "--budget-nodes"),
        (("speed", "--class", "L", "--k", "1", "--n", "3"), "--budget-len"),
    ],
)
def test_negative_budget_exits_two(capsys, tmp_path, monkeypatch, verb, flag, via):
    path = tmp_path / "g.txt"
    path.write_text("1 2\n3 4\n")
    argv = [str(path) if arg == "GRAPH" else arg for arg in verb]
    env = "WG_" + flag[2:].upper().replace("-", "_")
    if via == "flag":
        argv += [flag, "-1"]
        name = flag
    else:
        monkeypatch.setenv(env, "-1")
        name = env
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert name in err


def test_zero_budget_len_means_no_cap(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2\n3 4\n")
    code, _, _ = run(capsys, "decide", "--graph", str(path), "--class", "L", "--k", "1", "--budget-len", "0")
    assert code == 1


def test_gen_and_fixture(capsys):
    code, out, _ = run(capsys, "gen", "path", "3")
    assert code == 0
    assert json.loads(out) == {"nodes": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}
    code, out, _ = run(capsys, "gen", "fixture", "2k2")
    assert code == 0
    assert json.loads(out) == {"nodes": ["1", "2", "3", "4"], "edges": [["1", "2"], ["3", "4"]]}


def test_gen_bad_count_exits_two(capsys):
    code, _, err = run(capsys, "gen", "path", "x")
    assert code == 2
    assert err.startswith("error:")


def test_gen_cliques(capsys):
    code, out, _ = run(capsys, "gen", "cliques", "ab|c")
    assert code == 0
    assert json.loads(out) == {"nodes": ["a", "b", "c"], "edges": [["a", "b"]]}


def test_cliques_command(capsys):
    code, out, _ = run(capsys, "cliques", "ab|cd")
    assert code == 0
    assert out.splitlines()[:2] == ["word: abcdcdab", "sigma: c,d,a,b"]


def test_cliques_json(capsys):
    code, out, _ = run(capsys, "cliques", "ab", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "abba" or data["word"] == "abab"
    assert data["two_local"] and data["graph_matches"]


def test_threshold(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2\n2 3\n")
    code, out, _ = run(capsys, "threshold", "--graph", str(path))
    assert code == 0
    assert out == "threshold: yes\n"
    path.write_text("1 2\n2 3\n3 4\n1 4\n")
    code, out, _ = run(capsys, "threshold", "--graph", str(path))
    assert code == 1
    assert out == "threshold: no\n"


def test_cwd_build_eval_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "cwd", "build", "banana", "--sigma", "n,a,b", "--k", "2")
    assert code == 0
    path = tmp_path / "e.cwd"
    path.write_text(out)
    code, out, _ = run(capsys, "cwd", "eval", str(path))
    assert code == 0
    assert out.splitlines() == [
        "nodes: a b n",
        "edges:",
        "a n",
        "labels:",
        "a: two",
        "b: (1 0)",
        "n: two",
    ]
    code, out, _ = run(capsys, "cwd", "verify", "banana", "--sigma", "n,a,b", "--k", "2")
    assert code == 0
    assert out == "graph matches: yes\nlabels used: 4 (limit 5)\n"


# exit code, sha1 of stdout and stderr of `cwd build` and `cwd verify`,
# text and --json, on a word, a token word and a word too wide for k
CWD_BANANA = ["banana", "--sigma", "n,a,b", "--k", "2"]
CWD_TOKENS = ["p1 q2 p1 r3 q2 r3 p1", "--tokens", "--sigma", "q2,r3,p1", "--k", "2"]
CWD_TOO_WIDE = ["pepper", "--sigma", "e,p,r", "--k", "1"]
TOO_WIDE = "error: ('e', 'p', 'r') reaches 2 blocks, more than k=1\n"
NO_OUTPUT = "da39a3ee5e6b4b0d3255bfef95601890afd80709"


@pytest.mark.parametrize(
    "argv, code, digest, err",
    [
        (["build", *CWD_BANANA], 0, "133969a6bfb4094a9e8e3147cd0e2f68393a2fc7", ""),
        (["build", *CWD_BANANA, "--json"], 0, "32c8886e9c959607339dba47e17d21e04475f3b9", ""),
        (["build", *CWD_TOKENS], 0, "3f3125ffd1793b128a34e2da49fbab7f9069b89c", ""),
        (["build", *CWD_TOKENS, "--json"], 0, "171693bb88011cb8447df157cf41961df7e2aa84", ""),
        (["build", *CWD_TOO_WIDE], 2, NO_OUTPUT, TOO_WIDE),
        (["build", *CWD_TOO_WIDE, "--json"], 2, NO_OUTPUT, TOO_WIDE),
        (["verify", *CWD_BANANA], 0, "0cf356ef034abda7c13f9de53696e032e1ebf639", ""),
        (["verify", *CWD_BANANA, "--json"], 0, "5a787aad1a6cb988f4cf63d865ae1f4f8ba8f6d7", ""),
        (["verify", *CWD_TOKENS], 0, "b7d6a43b8cfcaaa8829b949657fa8d6ca942ea5c", ""),
        (["verify", *CWD_TOKENS, "--json"], 0, "f9af9e0c300b9beec5120cdffdaa1befc16eeb7a", ""),
        (["verify", *CWD_TOO_WIDE], 2, NO_OUTPUT, TOO_WIDE),
        (["verify", *CWD_TOO_WIDE, "--json"], 2, NO_OUTPUT, TOO_WIDE),
    ],
)
def test_cwd_build_and_verify_output_is_pinned(capsys, argv, code, digest, err):
    got_code, out, got_err = run(capsys, "cwd", *argv)
    assert (got_code, hashlib.sha1(out.encode()).hexdigest(), got_err) == (code, digest, err)


def test_cwd_eval_union_clash_names_the_nodes_sorted(capsys, tmp_path):
    # b is created before a on each side, so listing by creation order
    # would put b first
    side = '(union (create two "b") (create two "a"))'
    path = tmp_path / "clash.cwd"
    path.write_text(f"(union {side} {side})")
    assert run(capsys, "cwd", "eval", str(path)) == (
        2, "", "error: node(s) ['a', 'b'] created on both sides of a union\n"
    )


def test_cwd_eval_reads_escaped_node_ids(capsys, tmp_path):
    ids = ["a\nb", 'say "hi"\\']
    expr = Connect((1,), (0,), Union(Create((1,), ids[0]), Create((0,), ids[1])))
    path = tmp_path / "ids.cwd"
    path.write_text(serialize(expr))
    assert path.read_text().count("\n") == 0
    code, out, _ = run(capsys, "cwd", "eval", str(path), "--json")
    assert code == 0
    out = json.loads(out)
    assert out["graph"] == {"nodes": sorted(ids), "edges": [sorted(ids)]}
    assert out["labels"] == {ids[0]: [1], ids[1]: [0]}


def test_cwd_eval_parse_error_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.cwd"
    path.write_text("(create bogus \"x\")")
    code, _, err = run(capsys, "cwd", "eval", str(path))
    assert code == 2
    assert "parse error at line 1" in err


def _five_cliques(letters):
    names = [f"v{i}" for i in range(letters)]
    return [names[i : i + 5] for i in range(0, letters, 5)]


def test_cwd_verify_deep_clique_word(capsys):
    # A1..Am Am..A1 marked innermost part first is 2-local; the expression
    # nests about three levels per letter, 1,200 here
    parts = _five_cliques(400)
    word = [x for part in parts for x in part] + [x for part in parts[::-1] for x in part]
    sigma = ",".join(x for part in parts[::-1] for x in part)
    code, out, _ = run(capsys, "cwd", "verify", " ".join(word), "--tokens",
                       "--sigma", sigma, "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["matches"] is True


def test_cwd_verify_and_graph_of_a_2000_letter_word(capsys):
    # 4,000 positions: the paths without a budget stay near-linear in the word
    parts = _five_cliques(2000)
    word, sigma = represent_clique_partition(parts)
    text = " ".join(word)
    code, out, _ = run(capsys, "cwd", "verify", text, "--tokens",
                       "--sigma", ",".join(sigma), "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["matches"] is True
    code, out, _ = run(capsys, "graph", text, "--tokens", "--json")
    assert code == 0
    assert graph_from_json_text(out) == clique_partition_graph(parts)


def test_cwd_eval_deep_clique_expression(capsys, tmp_path):
    # each node enters as (1 0), is joined to its clique so far (0 1) and
    # joins it; a finished clique becomes two
    parts = _five_cliques(600)
    text = None
    for part in parts:
        for i, v in enumerate(part):
            leaf = f'(create (1 0) "{v}")'
            text = leaf if text is None else f"(union {leaf} {text})"
            if i:
                text = f"(connect (1 0) (0 1) {text})"
            text = f"(rename (1 0) (0 1) {text})"
        text = f"(rename (0 1) two {text})"
    path = tmp_path / "deep.cwd"
    path.write_text(text)
    code, out, _ = run(capsys, "cwd", "eval", str(path), "--json")
    assert code == 0
    out = json.loads(out)
    nodes = sorted(x for part in parts for x in part)
    edges = sorted(sorted(pair) for part in parts for pair in itertools.combinations(part, 2))
    assert out["graph"] == {"nodes": nodes, "edges": edges}
    assert out["labels"] == {x: "2" for x in nodes}


def test_cwd_build_rejects_insufficient_k(capsys):
    code, _, err = run(capsys, "cwd", "build", "pepper", "--k", "1", "--sigma", "e,p,r")
    assert code == 2
    assert err.startswith("error:")


def test_speed(capsys):
    code, out, _ = run(capsys, "speed", "--class", "L", "--k", "1", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "count: 8 of 8 graphs (class L, k=1, n=3)",
        "threshold cross-check: 8 (agree)",
        "bell B_3: 5",
    ]


def test_speed_json(capsys):
    code, out, _ = run(capsys, "speed", "--class", "R", "--k", "1", "--n", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"bell": 5, "class": "R", "count": 1, "k": 1, "n": 3, "total": 8}


def _labeled_speed(kind, k, n, max_len=None):
    """(code, count, threshold count, stderr) of a loop over every labeled graph."""
    count = threshold_count = 0
    for g in enumerate_labeled_graphs(n):
        query = MembershipQuery(graph=g, class_kind=kind, k=k, node_budget=n, max_len=max_len)
        try:
            member, _ = decide_membership(query)
        except BudgetExceededError as exc:
            return 3, None, None, f"error: {exc}\n"
        count += member
        threshold_count += is_threshold(g)
    return 0, count, threshold_count, ""


SPEED_CLASSES = [("R", 1), ("R", 2), ("L", 1), ("L", 2)]


@pytest.mark.parametrize("kind, k", SPEED_CLASSES)
def test_speed_by_classes_matches_the_labeled_loop(capsys, kind, k):
    for n in range(5):
        code, out, _ = run(capsys, "speed", "--class", kind, "--k", str(k), "--n", str(n), "--json")
        _, count, threshold_count, _ = _labeled_speed(kind, k, n)
        data = json.loads(out)
        assert (code, data["count"], data["total"]) == (0, count, 2 ** (n * (n - 1) // 2))
        if (kind, k) == ("L", 1):
            assert data["threshold_count"] == threshold_count == count


@pytest.mark.parametrize("kind, k", SPEED_CLASSES)
def test_speed_budget_len_matches_the_labeled_loop(capsys, kind, k):
    complete = 4 * (k if kind == "R" else k + 1)
    for cap in range(1, complete):
        code, out, err = run(
            capsys, "speed", "--class", kind, "--k", str(k), "--n", "4", "--budget-len", str(cap)
        )
        expected_code, count, _, expected_err = _labeled_speed(kind, k, 4, cap)
        assert (code, err) == (expected_code, expected_err), cap
        if code == 0:
            assert out.startswith(f"count: {count} of 64 graphs")


def _per_class_speed(kind, k, n, max_len):
    """(code, stdout, stderr) of `wg speed` without and with --json, as a
    plain loop that decides every n-node class by itself, with no store of
    refuted classes."""
    *_, layer = _graph_classes(n, node_budget=n)
    count = threshold_count = 0
    for cls in layer:
        g = class_graph(cls)
        query = MembershipQuery(graph=g, class_kind=kind, k=k, node_budget=n, max_len=max_len)
        try:
            member, _ = decide_membership(query)
        except BudgetExceededError as exc:
            return [(3, "", f"error: {exc}\n")] * 2
        count += member * cls.labeled
        threshold_count += is_threshold(g) * cls.labeled
    total = 2 ** (n * (n - 1) // 2)
    crosscheck = (kind, k) == ("L", 1)
    payload = {"bell": bell_number(n), "class": kind, "count": count, "k": k, "n": n, "total": total}
    lines = [f"count: {count} of {total} graphs (class {kind}, k={k}, n={n})"]
    if crosscheck:
        payload["threshold_count"] = threshold_count
        lines.append(f"threshold cross-check: {threshold_count} (agree)")
    lines.append(f"bell B_{n}: {bell_number(n)}")
    return [(0, "\n".join(lines) + "\n", ""), (0, json.dumps(payload, sort_keys=True) + "\n", "")]


@pytest.mark.parametrize("kind, k", SPEED_CLASSES)
def test_speed_budget_len_matches_the_per_class_loop_at_five_nodes(capsys, kind, k):
    # L,1 has no 3-node non-member, so only at n = 5 does a 4-node "no"
    # settle classes and a wrong cap guard show. Every cap at n = 5; at
    # n = 6 the caps maxc * 5 <= cap < maxc * 6, where the 5-node store
    # first settles 6-node classes under a cap
    maxc = k if kind == "R" else k + 1
    sweeps = [(5, cap) for cap in range(maxc * 5 + 2)] + [(6, cap) for cap in range(maxc * 5, maxc * 6)]
    for n, cap in sweeps:
        expected = _per_class_speed(kind, k, n, cap or None)
        for flags in ((), ("--json",)):
            got = run(
                capsys, "speed", "--class", kind, "--k", str(k), "--n", str(n),
                "--budget-nodes", str(n), "--budget-len", str(cap), *flags,
            )
            assert got == expected[bool(flags)], (n, cap, flags)


def _class_key(g):
    return len(g.nodes), _canonical_form(_neighbour_masks(g))[0]


def _sweep_answers(kind, k, n):
    """Membership of every class up to n nodes by (size, code), and the
    labeled counts of the minimal non-members: refuted classes whose every
    G - v is a member."""
    answers = {}
    minimal = {}
    for layer in _speed_layers(kind, k, n, node_budget=n, max_len=None):
        for cls, word in layer:
            m = len(cls.masks)
            answers[m, cls.code] = member = word is not None
            if not member and all(answers[m - 1, p] for p, _ in cls.parents):
                minimal[m, cls.code] = cls.labeled
    return answers, minimal


# W5, a hub on a 5-cycle, and the prism, two triangles matched
WHEEL = Graph(
    "012345", [("0", v) for v in "12345"] + [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5")]
)
PRISM = Graph(
    "123456",
    [("1", "2"), ("2", "3"), ("1", "3"), ("4", "5"), ("5", "6"), ("4", "6"), ("1", "4"), ("2", "5"), ("3", "6")],
)


def test_speed_layers_give_the_minimal_forbidden_subgraphs():
    sweeps = {(kind, k): _sweep_answers(kind, k, 6) for kind, k in SPEED_CLASSES + [("R", 3)]}
    # Chvatal and Hammer: threshold graphs are the (2K2, C4, P4)-free graphs
    assert sweeps["L", 1][1] == {
        _class_key(fixture("2K2")): 3,
        _class_key(fixture("P4")): 12,
        _class_key(fixture("C4")): 3,
    }
    # one copy per letter represents only complete graphs
    assert sweeps["R", 1][1] == {_class_key(empty_graph(2)): 1}
    assert sweeps["R", 2][1] == {_class_key(WHEEL): 72, _class_key(PRISM): 60}
    assert sweeps["L", 2][1] == {_class_key(WHEEL): 72}
    assert sweeps["R", 3][1] == {_class_key(WHEEL): 72}
    # criterion 7, L_k within R_(k+1), up to 6 nodes: no R_(k+1) obstruction
    # is in L_k, and so no member of L_k is outside R_(k+1)
    for k in (1, 2):
        local, bounded = sweeps["L", k][0], sweeps["R", k + 1][0]
        assert not any(local[key] for key in sweeps["R", k + 1][1])
        assert all(bounded[key] for key, member in local.items() if member)


@pytest.mark.parametrize("kind, k, n", [("R", 1, 5), ("R", 2, 6), ("R", 3, 5), ("L", 1, 6), ("L", 2, 5)])
def test_speed_layers_agree_with_decide_class_by_class(kind, k, n):
    # the uncapped sweep searches on the tower's masks and generators and
    # answers G - v from its store; the public search is the oracle
    layers = list(_speed_layers(kind, k, n, node_budget=n, max_len=None))
    assert len(layers) == n + 1
    for m, layer in enumerate(layers):
        for cls, word in layer:
            g = class_graph(cls)
            assert len(g.nodes) == m
            query = MembershipQuery(graph=g, class_kind=kind, k=k, node_budget=n)
            assert decide_membership(query)[0] == (word is not None), (kind, k, g)


def _node_names(word):
    """A sweep word, letter chr(i) for node i, in the class graph's node
    names "1".."m"."""
    return [str(ord(c) + 1) for c in word]


@pytest.mark.parametrize(
    "kind, k, n",
    [(kind, k, 5) for kind, k in SPEED_CLASSES + [("R", 3), ("L", 3)]] + [("L", 2, 6), ("R", 3, 6), ("L", 3, 6)],
)
def test_speed_sweep_words_certify_every_member(kind, k, n):
    # the word the sweep yields with every "yes", from extension or from
    # the search, must represent the class within the copy bound, and for
    # class L be k-local
    maxc = k if kind == "R" else k + 1
    for layer in _speed_layers(kind, k, n, node_budget=n, max_len=None):
        for cls, word in layer:
            if word is None:
                continue
            assert graph_of_word(_node_names(word)) == class_graph(cls), (kind, k, word)
            assert max(Counter(word).values(), default=0) <= maxc
            if kind == "L":
                assert is_k_local(word, k)


def _first_insertion(word, v, maxc, local_k, cap, target):
    """The first insertion of 1..maxc copies of node v into the sweep word,
    fewer copies first and gap sequences in lexicographic order, whose
    graph is the target within cap letters (and k-local for class L), by
    brute force."""
    for copies in range(1, maxc + 1):
        for gaps in itertools.combinations_with_replacement(range(len(word) + 1), copies):
            extended = list(word)
            for g in reversed(gaps):
                extended.insert(g, chr(v))
            if len(extended) > cap or graph_of_word(_node_names(extended)) != target:
                continue
            if local_k is None or is_k_local(extended, local_k):
                return "".join(extended)
    return None


@pytest.mark.parametrize("kind, k", SPEED_CLASSES + [("R", 3)])
def test_extend_word_is_sound(kind, k):
    # every class up to 6 nodes whose G - v are all members, from the word
    # the sweep kept for each parent, mapped into the class's labels by the
    # tower's embedding: a word the insertion returns is a certificate
    # within the copy bound and the cap, a non-member's parents never
    # extend, and the word is the first insertion that fits by brute force
    maxc = k if kind == "R" else k + 1
    local_k = None if kind == "R" else k
    words = {}
    for m, layer in enumerate(_speed_layers(kind, k, 6, node_budget=6, max_len=None)):
        for cls, member_word in layer:
            if not all(p in words for p, _ in cls.parents):
                continue
            target = class_graph(cls)
            for code, embedding in cls.parents:
                v = embedding[-1]
                word = "".join(chr(embedding[ord(c)]) for c in words[code])
                for cap in (maxc * m, len(word) + 1):
                    extended = representability._extend_word(word, v, cls.masks[v], maxc, local_k, cap)
                    assert extended == _first_insertion(word, v, maxc, local_k, cap, target)
                    if member_word is None:
                        assert extended is None, (kind, k, target, code)
                    elif extended is not None:
                        assert graph_of_word(_node_names(extended)) == target
                        assert max(Counter(extended).values()) <= maxc
                        assert len(extended) <= cap
                        if kind == "L":
                            assert is_k_local(extended, k)
        words = {cls.code: word for cls, word in layer if word is not None}


def _chord_diagrams(n):
    """The (2n - 1)!! double-occurrence words on n letters, as the position
    pairs of each letter's two copies, letters in order of first occurrence."""
    def matchings(free):
        if not free:
            yield ()
            return
        first, rest = free[0], free[1:]
        for i, second in enumerate(rest):
            for chords in matchings(rest[:i] + rest[i + 1:]):
                yield ((first, second),) + chords

    return matchings(tuple(range(2 * n)))


def _chord_graphs(n):
    """The distinct neighbour masks of the alternation graphs of the
    double-occurrence words on n letters: chords cross exactly when their
    letters alternate."""
    graphs_seen = set()
    for chords in _chord_diagrams(n):
        masks = [0] * n
        for i, (a1, a2) in enumerate(chords):
            for j, (b1, b2) in enumerate(chords[:i]):
                # b opens before a, so they cross when b closes inside a
                if a1 < b2 < a2:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        graphs_seen.add(tuple(masks))
    return graphs_seen


def _relabeled_count(mask_sets, n):
    """Labeled graphs on n nodes reached by relabeling the given masks,
    counted by their edge sets, with no canonical form."""
    labeled = set()
    for masks in mask_sets:
        edges = [(i, j) for i in range(n) for j in range(i) if masks[i] >> j & 1]
        for perm in itertools.permutations(range(n)):
            labeled.add(frozenset(frozenset((perm[i], perm[j])) for i, j in edges))
    return len(labeled)


R2_COUNTS = [1, 1, 2, 8, 64, 1024, 32636, 1954100]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_speed_r2_is_the_circle_graphs(n):
    # Halldorsson, Kitaev and Pyatkin, "Alternation graphs" (WG 2011): a
    # word with at most two copies per letter stays a word for its graph
    # when its once-only letters move to the front, so R_2 is the
    # alternation graphs of double-occurrence words, the circle graphs
    chord_graphs = _chord_graphs(n)
    *_, last = _speed_layers("R", 2, n, node_budget=n, max_len=None)
    # the 0-node class's word is "", so a member is a word that is not None
    members = {cls.code: cls.labeled for cls, word in last if word is not None}
    assert {_canonical_form(list(masks))[0] for masks in chord_graphs} == set(members)
    assert sum(members.values()) == R2_COUNTS[n]
    if n <= 5:
        assert _relabeled_count(chord_graphs, n) == R2_COUNTS[n]


@pytest.mark.parametrize("n", [6, pytest.param(7, marks=pytest.mark.slow)])
def test_r2_minimal_non_members_from_the_chord_image(n):
    # a class outside the chord image whose G - v all lie inside it is a
    # minimal non-member of R_2 with no word search: the sweep's are W5 and
    # the prism at 6 nodes, and 37 classes at 7
    image = {m: {_canonical_form(list(masks))[0] for masks in _chord_graphs(m)} for m in (n - 1, n)}
    *_, last = _graph_classes(n, node_budget=n)
    minimal = {
        (n, cls.code): cls.labeled
        for cls in last
        if cls.code not in image[n] and all(p in image[n - 1] for p, _ in cls.parents)
    }
    swept = {key: labeled for key, labeled in _sweep_answers("R", 2, n)[1].items() if key[0] == n}
    assert minimal == swept
    assert len(minimal) == {6: 2, 7: 37}[n]
    if n == 6:
        assert minimal == {_class_key(WHEEL): 72, _class_key(PRISM): 60}


@pytest.mark.parametrize(
    "kind, k, count, searches, leaf_checks",
    [("L", 1, 332, 4, 50), ("R", 2, 1024, 1, 0), ("L", 2, 1024, 1, 52)],
)
def test_speed_sweep_search_counts_are_pinned(monkeypatch, kind, k, count, searches, leaf_checks):
    # machine-independent: one uncapped 5-node sweep, class tower included
    # and grown from a cold store; the search reads the tower's masks, so
    # it builds none from a Graph. A class whose G - v are all members is
    # searched only when no parent's word extends, so the searches are the
    # 0-node class and, for L,1, the refutations of 2K2, C4 and P4 (one
    # window each); the leaf checks include the extensions' is_k_local
    monkeypatch.setattr(graphs, "_CLASS_TOWER", graphs._CLASS_TOWER[:1])
    calls = {"_search_exact_length": 0, "is_k_local": 0, "_canonical_form": 0, "_neighbour_masks": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in calls:
        for module in (graphs, representability):
            if hasattr(module, name):
                counting(module, name)
    for tower in (119, 0):
        # the second sweep finds the tower stored and searches as much again
        for name in calls:
            calls[name] = 0
        *_, last = _speed_layers(kind, k, 5, node_budget=5, max_len=None)
        assert sum(cls.labeled for cls, word in last if word is not None) == count
        assert calls == {
            "_search_exact_length": searches,
            "is_k_local": leaf_checks,
            "_canonical_form": tower,
            "_neighbour_masks": 0,
        }


@pytest.mark.parametrize("kind", ["R", "L"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_speed_rejects_k_below_one(capsys, kind, k):
    # a cap of 2 at n = 3 is below the complete bound only for L with k = 0
    for extra in ((), ("--json",), ("--budget-len", "2"), ("--budget-len", "2", "--json")):
        code, out, err = run(capsys, "speed", "--class", kind, "--k", k, "--n", "3", *extra)
        assert (code, out, err) == (2, "", f"error: need k >= 1, got {k}\n"), extra


def test_speed_six_nodes_need_a_budget(capsys, monkeypatch):
    # first on a cold class tower, then with 7 nodes stored, which the
    # budget does not consult; monkeypatch puts the process's store back.
    # n and the node budget are checked before k, so k = 0 changes nothing
    monkeypatch.setattr(graphs, "_CLASS_TOWER", graphs._CLASS_TOWER[:1])
    for _ in range(2):
        for k in ("1", "0"):
            code, out, err = run(capsys, "speed", "--class", "L", "--k", k, "--n", "6")
            assert (code, out, err) == (3, "", "error: 6 nodes exceeds the enumeration budget 5\n")
            code, out, err = run(capsys, "speed", "--class", "L", "--k", k, "--n", "-1")
            assert (code, out, err) == (2, "", "error: need n >= 0, got -1\n")
        list(_graph_classes(7, node_budget=7))


@pytest.mark.parametrize(
    "kind, k, n, count",
    [
        ("L", 1, 6, 2874),  # OEIS A005840
        ("R", 2, 6, 32636),
        ("L", 2, 6, 32696),
        # L_2 within L_3, and W5 (72 labeled graphs) in neither: 32,768 - 72
        ("L", 3, 6, 32696),
        ("R", 3, 6, 32696),
        ("L", 1, 7, 29024),  # OEIS A005840
        pytest.param("R", 2, 7, 1954100, marks=pytest.mark.slow),
        pytest.param("R", 3, 7, 2054480, marks=pytest.mark.slow),
        pytest.param("L", 2, 7, 2046920, marks=pytest.mark.slow),
    ],
)
def test_speed_counts_are_pinned(capsys, kind, k, n, count):
    code, out, _ = run(
        capsys, "speed", "--class", kind, "--k", str(k), "--n", str(n), "--budget-nodes", str(n), "--json"
    )
    data = json.loads(out)
    assert (code, data["count"], data["total"]) == (0, count, 2 ** (n * (n - 1) // 2))


def test_usage_errors_exit_two(capsys):
    assert main(["locality"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["decide", "--class", "Q", "--graph", "-", "--k", "1"]) == 2


TOP_USAGE = """\
usage: wg [-h]
          {graph,locality,check,uniformize,decide,gen,cliques,threshold,cwd,speed}
          ...
"""

TOP_HELP = TOP_USAGE + """
graphs represented by words: build, check, and search

positional arguments:
  {graph,locality,check,uniformize,decide,gen,cliques,threshold,cwd,speed}
    graph               graph represented by a word
    locality            exact locality, or block counts under --sigma
    check               is the word k-local?
    uniformize          cap occurrence counts of a k-local word at k+1
    decide              bounded membership search for a graph
    gen                 emit a generated graph as JSON
    cliques             2-local word for a union of cliques, with verification
    threshold           threshold recognition by elimination
    cwd                 clique-width expressions
    speed               count class members over all labeled graphs on n nodes

options:
  -h, --help            show this help message and exit
"""

CWD_HELP = """\
usage: wg cwd [-h] {build,eval,verify} ...

positional arguments:
  {build,eval,verify}
    build              expression for a word and marking witness
    eval               evaluate a serialized expression
    verify             build, evaluate, and compare against the word's graph

options:
  -h, --help           show this help message and exit
"""

# verb, sha1 of its --help text, sha1 of its error text with no arguments,
# and that text's last line; all taken at an 80-column width. All 24 match
# on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0; on 3.13.0 only TOP_USAGE
# differs (in `wg --help` and the `wg bogus` error), which puts the final
# "..." on the choices line.
VERB_TEXTS = [
    ("graph", "56a4d435d6abd4c1d0f469ff52d6906733194d4e", "67b8b7b8e13e4a8b8b3b60f9ec49e7bc5d1395ef",
     "wg graph: error: the following arguments are required: word"),
    ("locality", "1e23558d0cd39d53a2450e0f7c2020ba5264eccd", "b03c21b37fc0ff8a7cbcb0d53e2992c6e7d42988",
     "wg locality: error: the following arguments are required: word"),
    ("check", "ed06e19e348d3aa86afcee159e811f8c4678b1ff", "ca0383824b49dfcd662d62a4a3ff0d1fe205541f",
     "wg check: error: the following arguments are required: word, --k"),
    ("uniformize", "a0fac06afe88520422bd35feb104c019f940e97f", "86280fc7e03c1001dace6b749259ccbf4b994f7a",
     "wg uniformize: error: the following arguments are required: word, --k, --sigma"),
    ("decide", "faace948fdd7020dbcd1ac512b57368701c821b6", "fe4da16628fb455c42e2212ed93478f87f8044fc",
     "wg decide: error: the following arguments are required: --graph, --class, --k"),
    ("gen", "098cab801904cba31fe06b136fcecf833f7c7fb6", "49637609fbd7018436a8eb255202d1b9673c43c1",
     "wg gen: error: the following arguments are required: kind, arg"),
    ("cliques", "77aaded364c6032301253aa2b7344035b1082d20", "02ae0b088fe25e386f4b1574c04ab00159d09c1a",
     "wg cliques: error: the following arguments are required: spec"),
    ("threshold", "16d8ccdf990602785e0f7efc65012848a91c2f48", "5f1157603c90940435c7a200b7b13572eeda412e",
     "wg threshold: error: the following arguments are required: --graph"),
    ("cwd build", "5a9370b6bc9f22838faf8328cfec1b5e76fd8771", "a71558c66ba015c40ad1d61373d26d8ffef769c6",
     "wg cwd build: error: the following arguments are required: word, --sigma, --k"),
    ("cwd eval", "fd69949aed661ed61d1e76d4d7a6df3076f119c4", "d567e839f7effe2f996f1fd74a48374b5f38a896",
     "wg cwd eval: error: the following arguments are required: path"),
    ("cwd verify", "f4fe4a4756c57a9a831aca27131b50e8f19dce78", "86b77b7c7af5757753b016e134904a9198210d31",
     "wg cwd verify: error: the following arguments are required: word, --sigma, --k"),
    ("speed", "86c8528323c980579e5b3745eb8ea4bad0b547da", "eeab369f800c5c2680757bc2901921bdbe98039e",
     "wg speed: error: the following arguments are required: --class, --k, --n"),
]


def _sha1(text):
    return hashlib.sha1(text.encode()).hexdigest()


def test_help_exits_zero(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "--help") == (0, TOP_HELP, "")
    assert run(capsys, "cwd", "--help") == (0, CWD_HELP, "")
    for verb, help_sha1, _, _ in VERB_TEXTS:
        code, out, err = run(capsys, *verb.split(), "--help")
        assert (code, _sha1(out), err) == (0, help_sha1, ""), verb


def test_usage_error_texts(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "bogus") == (
        2,
        "",
        TOP_USAGE + "wg: error: argument command: invalid choice: 'bogus' (choose from 'graph', "
        "'locality', 'check', 'uniformize', 'decide', 'gen', 'cliques', 'threshold', 'cwd', 'speed')\n",
    )
    for verb, _, error_sha1, last in VERB_TEXTS:
        code, out, err = run(capsys, *verb.split())
        assert (code, out, err.splitlines()[-1], _sha1(err)) == (2, "", last, error_sha1), verb


def _parsers(parser, path=()):
    """(names on the way, parser) for the parser and every subparser below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, (*path, name))


def _filled(parser):
    """Names of the subparsers, nested ones included, that hold an action
    besides -h; build_parser leaves the others with no action, not even -h."""
    return _holding(parser, lambda actions: any(not isinstance(a, argparse._HelpAction) for a in actions))


def _holding(parser, has):
    """Names of the subparsers, nested ones included, whose action list passes has."""
    return {path[-1] for path, sub in _parsers(parser) if path and has(sub._actions)}


def _helped(actions):
    return any(isinstance(a, argparse._HelpAction) for a in actions)


def _empty(actions):
    return actions == []


VERBS = {"graph", "locality", "check", "uniformize", "decide", "gen", "cliques", "threshold", "cwd", "speed"}


def test_build_parser_fills_only_the_named_verbs():
    parser = cli.build_parser(["locality", "abc"])
    # every verb's subparser exists, so help and usage texts name them all
    assert {path for path, _ in _parsers(parser)} == {()} | {(verb,) for verb in VERBS}
    cases = [
        (["locality", "abc"], {"locality"}),
        (["--", "locality", "abc"], {"locality"}),
        (["cwd", "verify", "abab", "--sigma", "a,b", "--k", "2"], {"cwd", "verify"}),
        (["bogus"], set()),
    ]
    for argv, named in cases:
        parser = cli.build_parser(argv)
        # a named subparser keeps its -h; the others hold no action at all
        assert _filled(parser) == named, argv
        assert _holding(parser, _helped) == named, argv
        assert _holding(parser, _empty) == {path[-1] for path, _ in _parsers(parser) if path} - named, argv
    full = cli.build_parser()
    assert len(list(_parsers(full))) == 14
    assert _filled(full) == _holding(full, _helped) == VERBS | {"build", "eval", "verify"}


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    seen = []
    build = cli.build_parser

    def recording(argv=None):
        seen.append(argv)
        return build(argv)

    monkeypatch.setattr(cli, "build_parser", recording)
    monkeypatch.setattr("sys.argv", ["wg", "locality", "abcab", "--json"])
    assert main() == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == ('{"locality": 2, "witness": ["a", "b", "c"], "word": "abcab"}\n', "")
    assert seen == [["locality", "abcab", "--json"]]


def test_internal_error_exits_four(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("invariant broke\nsecond line")

    monkeypatch.setattr(cli, "_cmd_graph", broken)
    code, out, err = run(capsys, "graph", "balloon")
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: invariant broke second line\n"
