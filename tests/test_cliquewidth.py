from __future__ import annotations

import copy
import hashlib
import itertools
import pickle
import random

import pytest

from wordgraphs import (
    TWO,
    Connect,
    Create,
    ParseError,
    Rename,
    RenameCycleError,
    Union,
    build_expression,
    eval_expression,
    graph_of_word,
    labels_used,
    locality,
    max_block_count,
    parse,
    represent_clique_partition,
    schedule_renames,
    serialize,
    simulate_marking,
)
from wordgraphs.cliquewidth import _build_expression, _check_on_masks
from wordgraphs.graphs import Graph, _neighbour_masks
from wordgraphs.words import _letter_masks


def reference_eval(expr):
    """Oracle: evaluate by recursion, relabeling and connecting node by node."""
    if isinstance(expr, Create):
        return {expr.node}, set(), {expr.node: expr.label}
    if isinstance(expr, Union):
        left_nodes, left_edges, left_labels = reference_eval(expr.left)
        nodes, edges, labels = reference_eval(expr.right)
        if left_nodes & nodes:
            raise ValueError(f"node(s) {sorted(left_nodes & nodes)!r} created on both sides of a union")
        return left_nodes | nodes, left_edges | edges, {**left_labels, **labels}
    nodes, edges, labels = reference_eval(expr.child)
    if isinstance(expr, Connect):
        for u in nodes:
            for v in nodes:
                if u < v and {labels[u], labels[v]} == {expr.first, expr.second}:
                    edges.add((u, v))
    else:
        labels = {v: expr.new if l == expr.old else l for v, l in labels.items()}
    return nodes, edges, labels


def test_eval_matches_node_by_node_reference():
    rng = random.Random(41)
    pool = [(0,), (1,), TWO, (0, 1)]
    # connects and renames also draw (1, 1), which no create uses, and a
    # rename may keep its label: Rename(x, x)
    ops = [*pool, (1, 1)]
    corners = {"rename to itself": 0, "label never created": 0}

    def random_expr(ids, depth):
        if depth == 0 or rng.random() < 0.2:
            return Create(rng.choice(pool), rng.choice(ids))
        kind = rng.randrange(3)
        if kind == 0:
            return Union(random_expr(ids, depth - 1), random_expr(ids, depth - 1))
        child = random_expr(ids, depth - 1)
        if kind == 1:
            first, second = rng.sample(ops, 2)
            node = Connect(first, second, child)
        else:
            first, second = rng.choice(ops), rng.choice(ops)
            node = Rename(first, second, child)
            corners["rename to itself"] += first == second
        corners["label never created"] += (1, 1) in (first, second)
        return node

    clashes = 0
    for _ in range(400):
        expr = random_expr([f"n{i}" for i in range(rng.randint(1, 40))], rng.randint(0, 8))
        try:
            nodes, edges, labels = reference_eval(expr)
        except ValueError as exc:
            clashes += 1
            with pytest.raises(ValueError) as caught:
                eval_expression(expr)
            assert str(caught.value) == str(exc)
            continue
        out = eval_expression(expr)
        assert out.graph == Graph(frozenset(nodes), frozenset(edges))
        assert out.labels == labels
    assert 20 < clashes < 200
    assert min(corners.values()) > 50, corners


def test_two_survives_pickle_and_deepcopy():
    expr = Connect((1,), TWO, Create((0,), "a"))
    for copied in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
        assert copied == expr
        assert copied.second is TWO
        assert serialize(copied) == serialize(expr)


def test_create_and_union_eval():
    expr = Union(Create((1,), "a"), Create((0,), "b"))
    out = eval_expression(expr)
    assert out.graph == Graph(frozenset("ab"), frozenset())
    assert out.labels == {"a": (1,), "b": (0,)}


def test_union_rejects_shared_nodes():
    with pytest.raises(ValueError):
        eval_expression(Union(Create((1,), "a"), Create((0,), "a")))


def test_connect_joins_label_classes():
    expr = Connect(
        (1,),
        (0,),
        Union(Union(Create((1,), "a"), Create((1,), "b")), Create((0,), "c")),
    )
    out = eval_expression(expr)
    assert out.graph.sorted_edges() == [("a", "c"), ("b", "c")]


def test_connect_requires_distinct_labels():
    with pytest.raises(ValueError):
        Connect((1,), (1,), Create((1,), "a"))


def test_connect_same_label_pairs_stay_apart():
    expr = Connect((1,), (0,), Union(Create((1,), "a"), Create((1,), "b")))
    assert eval_expression(expr).graph.edges == frozenset()


def test_rename_merges_classes():
    expr = Rename((1,), (0,), Union(Create((1,), "a"), Create((0,), "b")))
    assert eval_expression(expr).labels == {"a": (0,), "b": (0,)}


def test_eval_k2():
    expr = Rename(
        (0,),
        (1,),
        Connect((1,), (0,), Union(Create((0,), "b"), Rename((0,), (1,), Create((0,), "a")))),
    )
    out = eval_expression(expr)
    assert out.graph == Graph(frozenset("ab"), frozenset({("a", "b")}))
    assert out.labels == {"a": (1,), "b": (1,)}


def test_serialize_forms():
    assert serialize(Create(TWO, "x")) == '(create two "x")'
    assert serialize(Create((1, 0), "a b")) == '(create (1 0) "a b")'
    assert serialize(Create((1,), 'q"\\')) == '(create (1) "q\\"\\\\")'
    expr = Union(Create((1,), "a"), Create((0,), "b"))
    assert serialize(expr) == '(union (create (1) "a") (create (0) "b"))'
    # bool bits are written as the bits they equal, so the text reads back
    flags = Create((True, False), "a")
    assert serialize(flags) == '(create (1 0) "a")'
    assert parse(serialize(flags)) == flags
    flags = Rename((True, False), (False, True), Connect((True, True), (False, True), flags))
    assert serialize(flags) == '(rename (1 0) (0 1) (connect (1 1) (0 1) (create (1 0) "a")))'
    assert parse(serialize(flags)) == flags


@pytest.mark.parametrize("bad", [42, None, (TWO, "a"), "x", '(create two "b")'])
def test_serialize_rejects_what_is_no_node(bad):
    for expr in (bad, Union(Create(TWO, "a"), bad), Rename((1,), TWO, bad)):
        for walk in (serialize, eval_expression):
            with pytest.raises(TypeError) as caught:
                walk(expr)
            assert str(caught.value) == f"not an expression node: {bad!r}"


def test_serialize_writes_subclasses_like_their_base():
    subclasses = [type("My" + base.__name__, (base,), {}) for base in (Create, Union, Connect, Rename)]

    def build(create, union, connect, rename):
        return rename((1, 0), TWO, connect((1, 0), (0, 1), union(create((1, 0), "a"), create((0, 1), 'b"'))))

    text = '(rename (1 0) two (connect (1 0) (0 1) (union (create (1 0) "a") (create (0 1) "b\\""))))'
    assert serialize(build(Create, Union, Connect, Rename)) == text
    mine = build(*subclasses)
    assert serialize(mine) == text
    # subclass nodes under a plain node, and plain nodes under a subclass node
    assert serialize(Union(mine, Create(TWO, "c"))) == f'(union {text} (create two "c"))'
    assert serialize(subclasses[1](Create(TWO, "c"), mine)) == f'(union (create two "c") {text})'
    # and evaluate like it
    assert eval_expression(mine) == eval_expression(build(Create, Union, Connect, Rename))
    assert eval_expression(subclasses[0](TWO, "a")) == eval_expression(Create(TWO, "a"))
    assert eval_expression(Union(mine, Create(TWO, "c"))) == eval_expression(parse(f'(union {text} (create two "c"))'))


@pytest.mark.parametrize(
    "expr, bad",
    [
        (Union(Create((1, 0), "a"), Create((1.0, 0), "b")), (1.0, 0)),
        (Union(Create((1.0, 0), "a"), Create((1, 0), "b")), (1.0, 0)),
        (Rename((0, 1), (True, False), Create((0, 1.0), "a")), (0, 1.0)),
        (Create([1, 0], "a"), [1, 0]),
        (Create(([1],), "a"), ([1],)),
        (Create(1, "a"), 1),
        (Create((), "a"), ()),
    ],
)
def test_serialize_rejects_every_label_that_is_no_bit_tuple(expr, bad):
    # 1.0 == 1 and hashes alike, so a label seen once must not vouch for an equal one
    with pytest.raises(ValueError) as caught:
        serialize(expr)
    assert str(caught.value) == f"label {bad!r} does not serialize: need a 0/1 tuple or TWO"


def test_parse_round_trip_random_expressions():
    rng = random.Random(29)

    def random_expr(depth, counter=[0]):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            counter[0] += 1
            return Create(random_label(), f"v{counter[0]}")
        if roll < 0.55:
            return Union(random_expr(depth - 1), random_expr(depth - 1))
        if roll < 0.8:
            a, b = random_label(), random_label()
            while b == a:
                b = random_label()
            return Connect(a, b, random_expr(depth - 1))
        return Rename(random_label(), random_label(), random_expr(depth - 1))

    def random_label():
        if rng.random() < 0.2:
            return TWO
        return tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))

    for _ in range(200):
        expr = random_expr(3)
        text = serialize(expr)
        again = parse(text)
        assert serialize(again) == text
        assert eval_expression(again) == eval_expression(expr)


def test_parse_accepts_whitespace_and_newlines():
    text = '(union\n  (create (1) "a")\n  (create (0) "b"))'
    assert serialize(parse(text)) == '(union (create (1) "a") (create (0) "b"))'


def test_node_ids_with_newlines_round_trip():
    # a newline in an id is written as \n, next to the \" and \\ escapes
    expr = Union(Create((1,), "a\nb"), Create(TWO, '\\n"\n'))
    text = serialize(expr)
    assert text == r'(union (create (1) "a\nb") (create two "\\n\"\n"))'
    assert parse(text) == expr
    assert parse(text).right.node == '\\n"\n'


def test_parse_error_positions():
    with pytest.raises(ParseError, match="line 1, column 9"):
        parse('(create bogus "x")')
    with pytest.raises(ParseError, match="line 2"):
        parse('(union (create (1) "a")\n (create (0) "b")')
    with pytest.raises(ParseError, match="unterminated"):
        parse('(create (1) "x')
    with pytest.raises(ParseError, match="trailing"):
        parse('(create (1) "x") junk')
    with pytest.raises(ParseError):
        parse("(connect (1) (1) (create (1) \"x\"))")
    with pytest.raises(ParseError):
        parse("(create () \"x\")")
    # whitespace before a token moves its column; \r and \t are one column each
    for text, line, column, message in [
        ('\n\n\t(frob (1) "a")', 3, 3, "expected create/union/connect/rename, got 'frob'"),
        ('\r\n\t\r\n  (create (1 2) "a")', 3, 14, "expected bit 0 or 1, got '2'"),
        ('\t\n (create\r\n (1)  "x', 3, 7, "unterminated string"),
        ('  (create (1) "a\\q")', 1, 17, "bad escape in string"),
        ('(create (1) "a")\r\n\t junk', 2, 3, "trailing input after expression"),
        ('(create (1) "a"\n\t \r\n  ', 1, 13, "expected ')' (at end of input)"),
        ('\r\n(union (create (0 1) "a") \t\n', 2, 25, "expected '(' (at end of input)"),
        ('\n \t\r\n', 1, 1, "expected '(' (empty input)"),
    ]:
        with pytest.raises(ParseError) as caught:
            parse(text)
        err = caught.value
        assert (err.line, err.column) == (line, column)
        assert str(err) == f"parse error at line {line}, column {column}: {message}"


def test_deep_expression_round_trip():
    # far deeper than the interpreter's recursion limit
    expr = Union(Create((0,), "a"), Create((1,), "b"))
    for i in range(20000):
        expr = Rename((1,), (0,), expr) if i % 2 == 0 else Rename((0,), (1,), expr)
    text = serialize(expr)
    assert text == (
        "(rename (0) (1) (rename (1) (0) " * 10000
        + '(union (create (0) "a") (create (1) "b"))'
        + ")" * 20000
    )
    back = parse(text)
    assert serialize(back) == text
    assert back == expr and hash(back) == hash(expr)
    assert back != Rename((0,), (1,), expr.child.child)
    shown = repr(back)
    assert shown.startswith("Rename(old=(0,), new=(1,), child=Rename(old=(1,), new=(0,), ")
    assert shown.endswith("node='b'))" + ")" * 20000)
    assert labels_used(expr) == {(0,), (1,)}
    out = eval_expression(expr)
    assert out.graph == Graph(frozenset("ab"), frozenset())
    assert out.labels == {"a": (1,), "b": (1,)}


def test_node_eq_hash_and_repr():
    expr = Connect((1,), TWO, Union(Create((0,), "a"), Rename(TWO, (1,), Create((1,), "b"))))
    # the text the dataclass repr gives
    assert repr(expr) == (
        "Connect(first=(1,), second=2, child=Union(left=Create(label=(0,), node='a'), "
        "right=Rename(old=2, new=(1,), child=Create(label=(1,), node='b'))))"
    )
    same = parse(serialize(expr))
    assert same == expr and hash(same) == hash(expr) and same is not expr
    assert expr != Connect((1,), TWO, Union(Create((0,), "a"), Rename(TWO, (1,), Create((1,), "c"))))
    assert expr != Rename((1,), TWO, expr.child)
    assert Create((0,), "a") != ((0,), "a")
    assert len({expr, same, expr.child}) == 2


def _malformed_corpus():
    rng = random.Random(43)
    texts = [
        "", " ", "(", ")", "((", "())", "(union", "(union)", "(create)",
        '(create (1) "a"', '(create (1) "a"))', '(create (1) "a") (create (0) "b")',
        '(create (1) "a") junk', '(union (create (1) "a"))', '(frob (1) "a")', '("x")',
        '(create (2) "a")', '(create () "a")', '(create three "a")', '(create (1 x) "a")',
        '(create 1 "a")', '(create (1 "a")', '(create (1) a)', '(create (1) "a" "b")',
        '(connect (1) (1) (create (1) "a"))', '(connect (1) (1) (create (1) "a")',
        '(connect (1) (create (1) "a"))', '(rename two (create (1) "a"))',
        '(create (1) "a\\q")', '(create (1) "a\\', '(create (1) "a\\\n")',
        '(create (1) "a\nb")', '\n\n  (create (1) "a', '(create (1) "a\\"',
        '(create\n(1)\n"a")\n)', '(create (1) "a")\n\n  x',
    ]
    alphabet = ["(", ")", '"', "\\", " ", "\n", "\t", "0", "1", "2", "two", "x", "union"]
    valid = [serialize(build_expression(w, locality(w)[1], 3)) for w in ("banana", "bacaba")]
    for _ in range(400):
        text = list(rng.choice(valid))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text))
            edit = rng.randrange(3)
            if edit == 0:
                del text[i]
            elif edit == 1:
                text.insert(i, rng.choice(alphabet))
            else:
                text[i] = rng.choice(alphabet)
        texts.append("".join(text))
    return texts


def test_parse_error_corpus_is_pinned():
    lines = []
    for text in _malformed_corpus():
        try:
            parse(text)
            message = None
        except ParseError as err:
            message = str(err)
        lines.append(repr((text, message)))
    assert (len(lines), sum(not line.endswith(", None)") for line in lines)) == (436, 394)
    # computed with the recursive reader and its character scanner
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "99bdaca2399cc1cdc095f889903e21b98b4d70a9"


def test_schedule_renames_chain_order():
    # b -> c must run before a -> b, otherwise a would land on c
    order = schedule_renames({(0, 1): (1, 0), (1, 0): (1, 1)})
    assert order == [((1, 0), (1, 1)), ((0, 1), (1, 0))]


def test_schedule_renames_drops_identities():
    assert schedule_renames({(1,): (1,), TWO: TWO}) == []


def test_schedule_renames_parallel_sources():
    order = schedule_renames({(0, 1): TWO, (1, 0): TWO})
    assert order == [((0, 1), TWO), ((1, 0), TWO)]


def test_schedule_renames_cycle_raises():
    with pytest.raises(RenameCycleError):
        schedule_renames({(0, 1): (1, 0), (1, 0): (0, 1)})


def test_build_expression_k2():
    expr = build_expression("ab", ("a", "b"), 1)
    assert serialize(expr) == (
        '(rename (0) (1) (connect (1) (0) '
        '(union (create (0) "b") (rename (0) (1) (create (0) "a")))))'
    )
    out = eval_expression(expr)
    assert out.graph == Graph(frozenset("ab"), frozenset({("a", "b")}))
    assert out.labels == {"a": (1,), "b": (1,)}


def test_build_expression_matches_stage_labels():
    rng = random.Random(31)
    for _ in range(150):
        word = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 9)))
        k, sigma = locality(word)
        expr = build_expression(word, sigma, k)
        out = eval_expression(expr)
        assert out.graph == graph_of_word(word)
        from wordgraphs import block_labels

        final = block_labels(simulate_marking(word, sigma)[-1], k)
        assert out.labels == final
        assert len(labels_used(expr)) <= 2 ** k + 1
        # the CLI takes the label set from the builder's own check
        assert _build_expression(word, sigma, k) == (expr, labels_used(expr))


def _planted_token_word(rng, letters, length, k):
    # occurrences go, in marking order, to the end of a block or, while there
    # are fewer than k blocks, into a new one, so no stage shows more than k
    sigma = rng.sample(letters, len(letters))
    counts = [1] * len(sigma)
    for _ in range(length - len(sigma)):
        counts[rng.randrange(len(sigma))] += 1
    blocks = []
    for c, count in zip(sigma, counts):
        for _ in range(count):
            if not blocks or (len(blocks) < k and rng.random() < 0.3):
                blocks.insert(rng.randrange(len(blocks) + 1), [c])
            else:
                rng.choice(blocks).append(c)
    return tuple(x for block in blocks for x in block), tuple(sigma)


def _wide_alphabet_cases():
    rng = random.Random(71)
    for _ in range(250):
        letters = list("abcdefg"[: rng.randint(4, 7)])
        letters += [rng.choice(letters) for _ in range(rng.randint(0, 12))]
        rng.shuffle(letters)
        word = "".join(letters)
        k, sigma = locality(word)
        yield word, sigma, k
        yield word, sigma, k + 1
    for _ in range(20):
        names = [f"v{i}" for i in rng.sample(range(500), rng.randint(4, 50))]
        parts = []
        while names:
            size = rng.randint(1, 6)
            parts.append(names[:size])
            names = names[size:]
        word, sigma = represent_clique_partition(parts)
        yield word, sigma, 2
    for _ in range(20):
        k = rng.randint(1, 3)
        letters = [f"t{i}" for i in rng.sample(range(500), rng.randint(4, 40))]
        yield (*_planted_token_word(rng, letters, rng.randint(len(letters), 100), k), k)


def test_expression_text_beyond_three_letters_is_pinned():
    texts = hashlib.sha1()
    count = 0
    for word, sigma, k in _wide_alphabet_cases():
        texts.update((serialize(build_expression(word, sigma, k)) + "\n").encode())
        count += 1
    assert count == 540
    # computed with the label algebra that tracked merges and shifts per stage
    assert texts.hexdigest() == "43d243d9d7660a98a2ddd296d5e6f00dede1e375"


def _long_word_cases():
    # long alphabets, where many stages share their origins and held labels
    rng = random.Random(83)
    for k in (1, 2, 3):
        for _ in range(3):
            letters = [f"t{i}" for i in rng.sample(range(1000), rng.randint(100, 150))]
            yield (*_planted_token_word(rng, letters, rng.randint(len(letters), 2 * len(letters)), k), k)
    # 80 five-cliques laid out A1..A80 A80..A1, marked innermost first: 2-local on 400 letters
    parts = [[f"v{5 * i + j}" for j in range(5)] for i in range(80)]
    word = tuple(x for part in parts + parts[::-1] for x in part)
    yield word, tuple(x for part in parts[::-1] for x in part), 2


def test_expression_text_of_long_words_is_pinned():
    digests = [
        hashlib.sha1(serialize(build_expression(word, sigma, k)).encode()).hexdigest()
        for word, sigma, k in _long_word_cases()
    ]
    # computed with the builder that worked out every stage's renames afresh
    assert digests == [
        "1fbf7f7a391263c55f0f5482b5c3fcaf97427110",
        "992b05881ce9cfba2f595dade493097647582c9b",
        "753b0fdebefe2787845a8fa2ef19e555dc00f4a7",
        "3b230edee6c9162f98519ee1878cfe562a174aad",
        "317216225193233f5b73054ae3b55d1fc7232bb1",
        "0056195bc5562aa40d81540ae5c3829c8a81c3d3",
        "f54fd184ac7af24efec0e78824e6a4d43557b083",
        "1470898d0d68d76ab678214ac88b5550cc972cc7",
        "0aeacbc83a4e3ba17e1dbe792bb03010fbe5a0b0",
        "9e5118cbbb9e72b587902d2f903f1e5a709c7a1e",
    ]


def test_build_expression_checks_that_shared_labels_act_as_one(monkeypatch):
    # a and b both hold (1 1) when c enters; hiding the edge a-c from the
    # builder gives the two holders different neighbour verdicts
    from wordgraphs import cliquewidth

    real = cliquewidth._letter_masks

    def without_ac(word):
        letters, adj = real(word)
        a, c = letters.index("a"), letters.index("c")
        adj[a] &= ~(1 << c)
        adj[c] &= ~(1 << a)
        return letters, adj

    assert serialize(build_expression("abcabc", ("a", "b", "c"), 2))
    monkeypatch.setattr(cliquewidth, "_letter_masks", without_ac)
    with pytest.raises(RuntimeError, match=r"labeled \(1, 1\) part ways at stage 3"):
        build_expression("abcabc", ("a", "b", "c"), 2)


def test_letter_masks_are_the_neighbour_masks_of_the_word_graph():
    rng = random.Random(83)
    words = [(), "a", "aaaa", ("x",), ("yy", "yy", "yy")]
    for _ in range(300):  # random words, alphabets of 1 to 9 letters
        alphabet = "abcdefghi"[: rng.randint(1, 9)]
        words.append("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30))))
    for _ in range(30):  # planted k-local token words
        letters = [f"t{i}" for i in rng.sample(range(500), rng.randint(1, 60))]
        words.append(_planted_token_word(rng, letters, rng.randint(len(letters), 150), rng.randint(1, 3))[0])
    for _ in range(10):  # dense: concatenated permutations, most pairs alternate
        letters = [f"d{i}" for i in range(rng.randint(2, 80))]
        words.append(tuple(x for _ in range(rng.randint(1, 4)) for x in rng.sample(letters, len(letters))))
    for word in words:
        letters, masks = _letter_masks(word)
        graph = graph_of_word(word)
        assert letters == graph.sorted_nodes(), word
        assert masks == _neighbour_masks(graph), word


def _final_groups(expr, letters):
    """The letters of each label in the evaluated expr, as index masks."""
    groups = {}
    for v, label in eval_expression(expr).labels.items():
        groups[label] = groups.get(label, 0) | 1 << letters.index(v)
    return groups


def test_check_on_masks_needs_the_word_graph():
    # c enters last and is wired to a and b; dropping that connect keeps
    # every label, so only the comparison of the neighbour rows sees it
    letters, near = _letter_masks("abcabc")
    expr = build_expression("abcabc", ("a", "b", "c"), 2)
    groups = _final_groups(expr, letters)
    _check_on_masks(expr, letters, near, groups)
    above, node = [], expr
    while not isinstance(node, Connect):
        above.append(node)
        node = node.child
    broken = node.child
    for rename in reversed(above):
        broken = Rename(rename.old, rename.new, broken)
    assert _final_groups(broken, letters) == groups
    with pytest.raises(RuntimeError, match="does not evaluate to the word's graph"):
        _check_on_masks(broken, letters, near, groups)
    # a letter the word lacks, or one left out
    with pytest.raises(RuntimeError, match="does not evaluate to the word's graph"):
        _check_on_masks(Union(Create(TWO, "z"), expr), letters, near, groups)
    with pytest.raises(RuntimeError, match="does not evaluate to the word's graph"):
        _check_on_masks(expr, [*letters, "d"], [*near, 0], groups)
    with pytest.raises(ValueError, match=r"node\(s\) \['a'\] created on both sides of a union"):
        _check_on_masks(Union(Create(TWO, "a"), expr), letters, near, groups)


def test_check_on_masks_needs_the_final_labels():
    # the outermost rename gives c its final label; sending it elsewhere
    # keeps every edge, so only the comparison of the label groups sees it
    letters, near = _letter_masks("abcabc")
    expr = build_expression("abcabc", ("a", "b", "c"), 2)
    groups = _final_groups(expr, letters)
    assert isinstance(expr, Rename)
    broken = Rename(expr.old, TWO if expr.new != TWO else (0, 1), expr.child)
    assert eval_expression(broken).graph == eval_expression(expr).graph
    with pytest.raises(RuntimeError, match="evaluated labels disagree with the final stage"):
        _check_on_masks(broken, letters, near, groups)


def test_check_on_masks_collects_the_labels_used(monkeypatch):
    # a build takes its label set from its check's one walk of the
    # expression, never from a second walk by labels_used
    cases = list(_wide_alphabet_cases())
    with monkeypatch.context() as patched:
        patched.setattr("wordgraphs.cliquewidth.labels_used", None)
        built = [_build_expression(word, sigma, k) for word, sigma, k in cases]
    for (word, _, _), (expr, used) in zip(cases, built):
        letters, near = _letter_masks(word)
        assert used == labels_used(expr), word
        assert _check_on_masks(expr, letters, near, _final_groups(expr, letters)) == used, word


def test_build_expression_wider_k_is_allowed():
    k, sigma = locality("banana")
    expr = build_expression("banana", sigma, k + 1)
    assert eval_expression(expr).graph == graph_of_word("banana")


def test_build_expression_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_expression("", ("a",), 1)
    with pytest.raises(ValueError):
        build_expression("aba", ("a", "b"), 1)  # two blocks at stage 1
    with pytest.raises(ValueError):
        build_expression("ab", ("a", "b"), 0)


def test_labels_used():
    expr = build_expression("banana", ("n", "a", "b"), 2)
    used = labels_used(expr)
    assert TWO in used and (0, 0) in used
    assert len(used) == 4


def test_connect_order_within_stage_does_not_matter():
    # connecting to distinct labels commutes; evaluation fixes one order,
    # re-parsing the serialized form must preserve the graph
    word, sigma = "bacaba", ("a", "b", "c")
    assert max_block_count(word, sigma) <= 3
    expr = build_expression(word, sigma, 3)
    out = eval_expression(expr)
    assert out.graph == graph_of_word(word)
    assert eval_expression(parse(serialize(expr))) == out
