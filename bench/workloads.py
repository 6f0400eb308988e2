"""Seeded workload generators and the checks that go with each operation.

A workload is a sequence of passes. Pass p is generated from
random.Random(f"{seed}:{workload}:{p}"), so the same seed gives the same
operations in the same order on every run and under every hash seed. Every
pass of a workload has the same shape (op mix, length strata, tail), so a
run that completes more passes measures the same mix, and the share of
expected failures is the same in every run.

The program sees only the argv and the files an operation names; the
expected answers are worked out here with the oracles, never with
wordgraphs itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import oracles

LETTERS = "abcdefghijkl"


@dataclass
class Op:
    """One closed-loop operation: `wg <argv>`, then a check of its output.

    check(code, stdout) returns None when the answer is right, else why
    not. units is how many ops the call counts for (a speed sweep counts
    one per graph decided).
    """

    argv: list[str]
    check: Callable[[int, str], str | None]
    files: dict[str, str] = field(default_factory=dict)
    units: int = 1


def _json_answer(code: int, stdout: str, want_code: int):
    if code != want_code:
        raise AssertionError(f"exit code {code}, expected {want_code}")
    return json.loads(stdout)


def _checked(body: Callable[[], None]) -> str | None:
    try:
        body()
    except (AssertionError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _log_uniform(rng: random.Random, lo: int, hi: int, stratum: int, strata: int) -> int:
    """A value in the given stratum of the log-uniform law on [lo, hi]."""
    u = (stratum + rng.random()) / strata
    return int(round(lo * (hi / lo) ** u))


def _log_grid(lo: int, hi: int, stratum: int, strata: int) -> int:
    """The middle of the given stratum of the log-uniform law on [lo, hi]."""
    return int(round(lo * (hi / lo) ** ((stratum + 0.5) / strata)))


def _strata(rng: random.Random, count: int) -> list[int]:
    order = list(range(count))
    rng.shuffle(order)
    return order


# ---------------------------------------------------------------------------
# membership: wg decide on labeled 5-node graphs

NODES5 = [str(i) for i in range(1, 6)]
PAIRS5 = list(combinations(NODES5, 2))
MEMBERSHIP_QUERIES = (("L", 1), ("R", 2), ("L", 2))
MEMBERSHIP_PER_QUERY = 64


def _graph_json(nodes: list[str], edges: list[tuple[str, str]]) -> str:
    return json.dumps({"edges": [list(e) for e in edges], "nodes": nodes}, sort_keys=True)


def _decide_check(nodes, edges, kind: str, k: int):
    want_edges = frozenset(edges)
    threshold = oracles.is_threshold(nodes, edges)

    def check(code: int, stdout: str) -> str | None:
        def body():
            assert code in (0, 1), f"exit code {code}"
            out = json.loads(stdout)
            assert (out["class"], out["k"], out["n"]) == (kind, k, len(nodes)), "echo"
            assert out["member"] == (code == 0), "member flag disagrees with exit code"
            if not out["member"]:
                # the R,2 and L,2 sweeps at n=5 count all 1024 graphs, and
                # L,1 holds exactly the threshold graphs
                assert kind == "L" and k == 1 and not threshold, "unsound no"
                assert out["witness"] is None, "witness on a no"
                return
            witness = out["witness"]
            assert kind != "L" or k != 1 or threshold, "L,1 member that is not threshold"
            got_nodes, got_edges = oracles.alternation_graph(witness)
            assert got_nodes == frozenset(nodes), "witness alphabet differs from the nodes"
            assert got_edges == want_edges, "witness graph differs from the query"
            most = max(witness.count(x) for x in set(witness))
            if kind == "R":
                assert most <= k, f"a letter occurs {most} times, class R allows {k}"
            else:
                assert most <= k + 1, f"a letter occurs {most} times"
                assert oracles.exact_locality(witness)[0] <= k, "witness is not k-local"

        return _checked(body)

    return check


def _mask_order(seed: int, kind: str, k: int) -> list[int]:
    """The 1024 edge masks, seeded, then sorted by a cost proxy.

    The proxy (threshold or not, edge count, degree sequence) groups graphs
    whose searches cost about the same, so every 16th mask of this order is
    a sample that matches the whole population.
    """
    masks = list(range(1 << len(PAIRS5)))
    random.Random(f"{seed}:membership:masks:{kind}{k}").shuffle(masks)

    def proxy(mask: int):
        edges = [e for i, e in enumerate(PAIRS5) if mask >> i & 1]
        degrees = sorted(sum(v in e for e in edges) for v in NODES5)
        return oracles.is_threshold(NODES5, edges), len(edges), degrees

    return sorted(masks, key=proxy)


def membership_pass(seed: int, p: int, workdir: str) -> list[Op]:
    """64 queries each of (L,1), (R,2) and (L,2), shuffled together.

    Each query takes every 16th mask of its own order, shifted by one per
    pass: masks stay uniform, every 16 passes cover all 1024 once, and
    every pass has the same cost profile.
    """
    rng = random.Random(f"{seed}:membership:{p}")
    ops = []
    for kind, k in MEMBERSHIP_QUERIES:
        order = _mask_order(seed, kind, k)
        stride = len(order) // MEMBERSHIP_PER_QUERY
        for mask in order[p % stride :: stride]:
            edges = [e for i, e in enumerate(PAIRS5) if mask >> i & 1]
            name = f"{workdir}/g{p}-{kind}{k}-{mask}.json"
            ops.append(
                Op(
                    ["decide", "--graph", name, "--class", kind, "--k", str(k), "--json"],
                    _decide_check(NODES5, edges, kind, k),
                    files={name: _graph_json(NODES5, edges)},
                )
            )
    rng.shuffle(ops)
    return ops


def membership_setup(workdir: str) -> Op:
    nodes, edges = ["1", "2", "3"], [("1", "2"), ("2", "3")]
    name = f"{workdir}/setup-path3.json"
    return Op(
        ["decide", "--graph", name, "--class", "L", "--k", "1", "--json"],
        _decide_check(nodes, edges, "L", 1),
        files={name: _graph_json(nodes, edges)},
    )


# ---------------------------------------------------------------------------
# speed: whole sweeps over all labeled 5-node graphs

SPEED_SWEEPS = {("L", 1): 332, ("R", 2): 1024}  # L,1 n=5 is OEIS A005840


def _speed_check(kind: str, k: int, n: int, count: int, total: int):
    def check(code: int, stdout: str) -> str | None:
        def body():
            out = _json_answer(code, stdout, 0)
            assert (out["class"], out["k"], out["n"]) == (kind, k, n), "echo"
            assert (out["count"], out["total"]) == (count, total), (
                f"count {out['count']} of {out['total']}, expected {count} of {total}"
            )
            assert out["bell"] == {3: 5, 5: 52}[n], "bell number"

        return _checked(body)

    return check


def _speed_op(kind: str, k: int, n: int, count: int) -> Op:
    total = 1 << (n * (n - 1) // 2)
    return Op(
        ["speed", "--class", kind, "--k", str(k), "--n", str(n), "--json"],
        _speed_check(kind, k, n, count, total),
        units=total,
    )


def speed_pass(seed: int, p: int, workdir: str) -> list[Op]:
    ops = [_speed_op(kind, k, 5, count) for (kind, k), count in SPEED_SWEEPS.items()]
    random.Random(f"{seed}:speed:{p}").shuffle(ops)
    return ops


def speed_setup(workdir: str) -> Op:
    return _speed_op("L", 1, 3, 8)


# ---------------------------------------------------------------------------
# locality: exact locality and k-locality checks on 8-12 letter words

LOCALITY_PLANTED = 30
LOCALITY_RANDOM = 15


def planted_word(rng: random.Random, letters: list[str], length: int, k: int):
    """A word with at most k blocks at every stage of a random marking order.

    Occurrences are placed forwards in marking order, each at the end of an
    existing block or, while fewer than k blocks exist, as a new block.
    The marked part of every block is then a prefix of it, so no stage has
    more blocks than there are blocks. Returns the word and that order.
    """
    sigma = list(letters)
    rng.shuffle(sigma)
    counts = [1] * len(sigma)
    for _ in range(length - len(sigma)):
        counts[rng.randrange(len(sigma))] += 1
    blocks: list[list[str]] = []
    for c, count in zip(sigma, counts):
        for _ in range(count):
            if not blocks or (len(blocks) < k and rng.random() < 0.3):
                blocks.insert(rng.randrange(len(blocks) + 1), [c])
            else:
                rng.choice(blocks).append(c)
    word = [x for block in blocks for x in block]
    return word, sigma


def _locality_ops(word: str, sigma: list[str]) -> list[Op]:
    k, witness = oracles.exact_locality(word)
    stages = oracles.block_counts(word, sigma)

    def check_locality(code: int, stdout: str) -> str | None:
        def body():
            out = _json_answer(code, stdout, 0)
            assert out["word"] == word, "echo"
            assert out["locality"] == k, f"locality {out['locality']}, expected {k}"
            assert tuple(out["witness"]) == witness, "witness is not the smallest optimum"

        return _checked(body)

    def check_k(want: int, bound: int):
        def check(code: int, stdout: str) -> str | None:
            def body():
                out = _json_answer(code, stdout, 0 if want else 1)
                assert (out["word"], out["k"]) == (word, bound), "echo"
                assert out["k_local"] is bool(want), f"k_local {out['k_local']} at k={bound}"

            return _checked(body)

        return check

    def check_sigma(code: int, stdout: str) -> str | None:
        def body():
            out = _json_answer(code, stdout, 0)
            assert out["sigma"] == sigma, "echo"
            assert out["max_block_count"] == max(stages), (
                f"max block count {out['max_block_count']}, expected {max(stages)}"
            )

        return _checked(body)

    ops = [
        Op(["locality", word, "--json"], check_locality),
        Op(["check", word, "--k", str(k), "--json"], check_k(True, k)),
        Op(["locality", word, "--sigma", ",".join(sigma), "--json"], check_sigma),
    ]
    if k > 1:
        ops.append(Op(["check", word, "--k", str(k - 1), "--json"], check_k(False, k - 1)))
    return ops


def locality_pass(seed: int, p: int, workdir: str) -> list[Op]:
    """30 planted k-local words (k = 1..3) and 15 uniformly random words.

    Lengths are log-uniform on 50..1000 positions, one length stratum per
    word of each kind; the random words take each alphabet size 8..12
    three times, the largest alphabet in the shortest strata.
    """
    rng = random.Random(f"{seed}:locality:{p}")
    words = []
    for stratum in _strata(rng, LOCALITY_PLANTED):
        letters = list(LETTERS[: rng.randint(8, 12)])
        length = _log_uniform(rng, 50, 1000, stratum, LOCALITY_PLANTED)
        words.append(planted_word(rng, letters, length, 1 + stratum % 3))
    for stratum in range(LOCALITY_RANDOM):
        # the search grows with the alphabet and the length; pairing the
        # largest alphabet with the shortest strata keeps every pass's cost
        # close to the same, where a 12-letter 1000-position word alone can
        # take 3 s
        size = 12 - stratum * 5 // LOCALITY_RANDOM
        letters = list(LETTERS[:size])
        length = _log_uniform(rng, 50, 1000, stratum, LOCALITY_RANDOM)
        word = rng.sample(letters, size) + [rng.choice(letters) for _ in range(length - size)]
        rng.shuffle(word)
        sigma = list(letters)
        rng.shuffle(sigma)
        words.append((word, sigma))
    rng.shuffle(words)
    ops = []
    for word, sigma in words:
        ops.extend(_locality_ops("".join(word), sigma))
    return ops


def locality_setup(workdir: str) -> Op:
    return _locality_ops("abcab", ["a", "b", "c"])[0]


# ---------------------------------------------------------------------------
# expressions: graphs of token words and clique-width expressions

EXPRESSION_WORDS = 24  # of each family per pass
TAIL_VERIFY_LETTERS = 400
TAIL_EVAL_LETTERS = 600


def _tokens(rng: random.Random, count: int) -> list[str]:
    names = rng.sample(range(10 * count), count)
    return [f"v{i}" for i in names]


def _clique_parts(rng: random.Random, letters: int) -> list[list[str]]:
    names = _tokens(rng, letters)
    parts = []
    while names:
        size = min(len(names), rng.randint(1, 8))
        parts.append(names[:size])
        names = names[size:]
    return parts


def _tail_parts(rng: random.Random, letters: int) -> list[list[str]]:
    # five-cliques only, so the tail costs the same in every pass and run
    names = _tokens(rng, letters)
    return [names[i : i + 5] for i in range(0, letters, 5)]


def clique_word(parts: list[list[str]]) -> tuple[list[str], list[str]]:
    """Parts laid out A1..Am Am..A1, marked innermost part first: 2-local."""
    word = [x for part in parts for x in part] + [x for part in reversed(parts) for x in part]
    sigma = [x for part in reversed(parts) for x in part]
    return word, sigma


def clique_expression(parts: list[list[str]]) -> str:
    """An expression for the disjoint union of cliques, as s-expression text.

    Each node enters with label (1 0), is joined to the nodes of its clique
    so far (label (0 1)) and joins them; a finished clique is renamed to
    two. Depth is about three per node, so the text's nesting grows with
    the number of letters.
    """
    text = None
    for part in parts:
        for i, v in enumerate(part):
            text = f'(create (1 0) "{v}")' if text is None else f'(union (create (1 0) "{v}") {text})'
            if i:
                text = f"(connect (1 0) (0 1) {text})"
            text = f"(rename (1 0) (0 1) {text})"
        text = f"(rename (0 1) two {text})"
    return text


def _graph_check(word: list[str]):
    def check(code: int, stdout: str) -> str | None:
        def body():
            out = _json_answer(code, stdout, 0)
            nodes, edges = oracles.alternation_graph(word)
            assert out["nodes"] == sorted(nodes), "nodes"
            assert [tuple(e) for e in out["edges"]] == sorted(edges), "edges differ"

        return _checked(body)

    return check


def _expression_check(word: list[str], sigma: list[str], k: int, verify: bool):
    def check(code: int, stdout: str) -> str | None:
        def body():
            out = _json_answer(code, stdout, 0)
            assert (out["word"], out["sigma"], out["k"]) == (word, sigma, k), "echo"
            labels, edges, mentioned = oracles.evaluate_expression(
                oracles.read_expression(out["expression"])
            )
            nodes, want_edges = oracles.alternation_graph(word)
            assert labels.keys() == nodes, "expression nodes differ from the alphabet"
            assert edges == want_edges, "expression graph differs from the word's graph"
            assert labels == oracles.final_stage_labels(word, k), "final labels"
            assert out["labels_used"] == len(mentioned) <= 2**k + 1, "labels used"
            if verify:
                assert out["matches"] is True and out["label_limit"] == 2**k + 1, "verify"

        return _checked(body)

    return check


def _eval_check(parts: list[list[str]]):
    want_edges = sorted(
        (u, v) if u < v else (v, u) for part in parts for u, v in combinations(part, 2)
    )
    want_nodes = sorted(x for part in parts for x in part)

    def check(code: int, stdout: str) -> str | None:
        def body():
            out = _json_answer(code, stdout, 0)
            assert out["graph"]["nodes"] == want_nodes, "nodes"
            assert [tuple(e) for e in out["graph"]["edges"]] == want_edges, "edges differ"
            assert out["labels"] == {x: "2" for x in want_nodes}, "labels"

        return _checked(body)

    return check


def _word_ops(word: list[str], sigma: list[str], k: int) -> list[Op]:
    text = " ".join(word)
    tail = ["--tokens", "--sigma", ",".join(sigma), "--k", str(k), "--json"]
    return [
        Op(["graph", text, "--tokens", "--json"], _graph_check(word)),
        Op(["cwd", "build", text, *tail], _expression_check(word, sigma, k, False)),
        Op(["cwd", "verify", text, *tail], _expression_check(word, sigma, k, True)),
    ]


def _eval_op(parts: list[list[str]], name: str) -> Op:
    return Op(["cwd", "eval", name, "--json"], _eval_check(parts), files={name: clique_expression(parts)})


def expressions_pass(seed: int, p: int, workdir: str) -> list[Op]:
    """24 clique-partition words (k=2) and 24 planted k-local token words
    (k = 1..3, two positions per letter), plus the fixed tail.

    Both families take the same 24 letter counts in every pass, the middles
    of 24 log-uniform strata of 20..150. The slowest tenth of the ops is
    builds and verifies of the longest words, where latency climbs steeply
    from one op to the next, so op_p90_ms needs many ops to settle: lengths
    drawn at random within their strata, or half as many words per pass,
    moved it from run to run by more than the program's own noise.

    Clique words get graph, cwd build, cwd verify and cwd eval of an
    expression written here; planted words get the first three. The tail is
    one cwd verify of a 400-letter clique word and one cwd eval of a
    600-letter clique expression: both nest deeper than the interpreter's
    default recursion limit and fail with RecursionError at this baseline.
    """
    rng = random.Random(f"{seed}:expressions:{p}")
    groups = []
    for i, stratum in enumerate(_strata(rng, EXPRESSION_WORDS)):
        parts = _clique_parts(rng, _log_grid(20, 150, stratum, EXPRESSION_WORDS))
        word, sigma = clique_word(parts)
        name = f"{workdir}/e{p}-{i}.sexp"
        groups.append(_word_ops(word, sigma, 2) + [_eval_op(parts, name)])
    for stratum in _strata(rng, EXPRESSION_WORDS):
        letters = _log_grid(20, 150, stratum, EXPRESSION_WORDS)
        k = 1 + stratum % 3
        word, sigma = planted_word(rng, _tokens(rng, letters), 2 * letters, k)
        groups.append(_word_ops(word, sigma, k))
    parts = _tail_parts(rng, TAIL_VERIFY_LETTERS)
    groups.append(_word_ops(*clique_word(parts), 2)[2:])
    groups.append([_eval_op(_tail_parts(rng, TAIL_EVAL_LETTERS), f"{workdir}/e{p}-tail.sexp")])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def expressions_setup(workdir: str) -> Op:
    return _word_ops(["a", "b", "a", "b"], ["a", "b"], 2)[2]


WORKLOADS = {
    "membership": (membership_pass, membership_setup),
    "speed": (speed_pass, speed_setup),
    "locality": (locality_pass, locality_setup),
    "expressions": (expressions_pass, expressions_setup),
}
