"""Hypothesis properties of the word graph, of 1-locality, of the `check`
and `locality` exit codes, of the verb-only `wg` parser, and of the
expression reader and writer."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from wordgraphs import (  # noqa: E402
    TWO,
    Connect,
    Create,
    ParseError,
    Rename,
    Union,
    is_k_local,
    locality,
    parse,
    serialize,
)
from wordgraphs.cli import build_parser, main  # noqa: E402
from wordgraphs.graphs import Graph  # noqa: E402
from wordgraphs.locality import _search  # noqa: E402
from wordgraphs.words import _alternation_scan, graph_of_word  # noqa: E402

from test_cli import _parsers  # noqa: E402

# runs of one to three copies over one to six letters, so adjacent repeats,
# single occurrences and pairs that alternate one way only are all common
runs = st.integers(1, 6).flatmap(
    lambda m: st.lists(st.tuples(st.sampled_from("abcdef"[:m]), st.integers(1, 3)), max_size=16)
)
string_words = runs.map(lambda rs: "".join(c * m for c, m in rs))
token_words = string_words.map(lambda w: tuple({"a": "x1", "b": "yy", "c": "z"}.get(c, c) for c in w))

# bool bits equal the int bits and must be written as 0 and 1
labels = st.just(TWO) | st.lists(st.integers(0, 1) | st.booleans(), min_size=1, max_size=3).map(tuple)
node_ids = st.text(max_size=4)
distinct_pairs = st.tuples(labels, labels).filter(lambda pair: pair[0] != pair[1])

expressions = st.recursive(
    st.builds(Create, labels, node_ids),
    lambda children: (
        st.builds(Union, children, children)
        | st.builds(lambda pair, child: Connect(*pair, child), distinct_pairs, children)
        | st.builds(Rename, labels, labels, children)
    ),
    max_leaves=12,
)

# the tokens of well-formed text, and runs of the ASCII whitespace that may separate them
text_tokens = re.compile(r'"(?:[^"\\]|\\.)*"|[()]|[^\s()"]+')
spacing = st.text(st.sampled_from(" \t\r\n\x0b\x0c"), min_size=1, max_size=4)

grammar_text = st.text(st.sampled_from('()" \\\n\t01twocreateunionconnectrename'), max_size=40)
grammar_tokens = st.lists(
    st.sampled_from(["(", ")", " ", "\n", "two", "0", "1", '"a"', '"', "\\",
                     "create", "union", "connect", "rename"]),
    max_size=30,
).map("".join)


@settings(database=None, max_examples=300, deadline=None)
@given(string_words | token_words)
def test_graph_of_word_matches_pairwise_scan(word):
    letters = sorted(set(word))
    edges = [
        (a, b)
        for i, a in enumerate(letters)
        for b in letters[i + 1 :]
        if _alternation_scan(word, a, b)
    ]
    assert graph_of_word(word) == Graph(letters, edges)


@settings(database=None, max_examples=300, deadline=None)
@given(string_words.filter(bool), st.data())
def test_a_factor_is_never_more_local_than_its_word(word, data):
    # the `wg speed` window search does not extend a completed prefix that
    # fails is_k_local, since every extension then fails it too
    i = data.draw(st.integers(0, len(word) - 1))
    j = data.draw(st.integers(i + 1, len(word)))
    assert locality(word[i:j])[0] <= locality(word)[0]


def one_local_by_dfs(word):
    """Oracle: the marking DFS, asked for a sequence that stays within one block."""
    return not word or _search(word, sorted(set(word)), 2, 1) is not None


@st.composite
def planted_one_local_words(draw):
    """c^a w c^b for each of one to eight letters in turn, innermost first,
    which is 1-local, or a mutant of it with two positions swapped."""
    word = ""
    for c in draw(st.permutations("abcdefgh"[: draw(st.integers(1, 8))])):
        copies = draw(st.integers(1, 4))
        left = draw(st.integers(0, copies))
        word = c * left + word + c * (copies - left)
    if len(word) > 1 and draw(st.booleans()):
        p, q = draw(st.lists(st.integers(0, len(word) - 1), min_size=2, max_size=2, unique=True))
        swapped = list(word)
        swapped[p], swapped[q] = swapped[q], swapped[p]
        word = "".join(swapped)
    return word


# runs of one to three copies over one to eight letters
runs_of_eight = st.integers(1, 8).flatmap(
    lambda m: st.lists(st.tuples(st.sampled_from("abcdefgh"[:m]), st.integers(1, 3)), max_size=20)
)


@settings(database=None, max_examples=400, deadline=None)
@given(runs_of_eight.map(lambda rs: "".join(c * m for c, m in rs)) | planted_one_local_words())
def test_one_locality_by_peeling_matches_the_marking_dfs(word):
    # as a string and as the list of letter indices the word search builds
    expected = one_local_by_dfs(word)
    assert is_k_local(word, 1) == expected
    assert is_k_local([ord(c) - ord("a") for c in word], 1) == expected


@st.composite
def check_and_locality_argv(draw):
    """argv for `wg check` or `wg locality`, and the word it names.

    Words are strings, `--tokens` text or whitespace; k runs from -2 to 4;
    the marking sequence is left out, valid, empty or has an unknown
    letter; the letter budget is left out or runs from -1 to 13.
    """
    verb = draw(st.sampled_from(["check", "locality"]))
    letters = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "x1", "yy"]), max_size=12))
    form = draw(st.sampled_from(["string", "tokens", "whitespace"]))
    if form == "whitespace":
        text = draw(st.text(st.sampled_from(" \t\n"), max_size=3))
        tokens = draw(st.booleans())
    elif form == "tokens":
        text = draw(st.sampled_from([" ", "  ", "\t"])).join(letters)
        tokens = True
    else:
        text = "".join(c[0] for c in letters)
        tokens = False
    word = tuple(text.split()) if tokens else text
    argv = [verb, text, *(["--tokens"] if tokens else [])]
    k = draw(st.just(1) | st.integers(-2, 4))  # k = 1, the peel, half the time
    if verb == "check":
        argv += ["--k", str(k)]
    sigma = draw(st.sampled_from([None, None, "valid", "empty", "unknown"]))
    if sigma is not None:
        order = draw(st.permutations(sorted(set(word))))
        texts = {"valid": ",".join(order), "empty": "", "unknown": ",".join([*order, "q9"])}
        argv += ["--sigma", texts[sigma]]
    budget = draw(st.none() | st.integers(-1, 13))
    if budget is not None:
        argv += ["--budget-letters", str(budget)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, word, k, sigma


@settings(database=None, max_examples=300, deadline=None)
@given(check_and_locality_argv())
def test_check_and_locality_keep_the_exit_code_contract(case):
    argv, word, k, sigma = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    if code in (2, 3):
        # one error line, and never the handler of unexpected exceptions
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        assert "internal:" not in err, (argv, err)
    else:
        assert err == "", argv
    payload = json.loads(out) if "--json" in argv and code in (0, 1) else None
    if code == 1:
        # a sound "no", and only from check
        assert argv[0] == "check", argv
        assert payload["k_local"] is False if payload else f"{k}-local: no" in out, (argv, out)
    if code in (0, 1) and argv[0] == "check" and k == 1:
        if sigma is None:
            assert (code == 0) == one_local_by_dfs(word), argv
        elif code == 0:
            # a sequence that keeps one block is a witness for the DFS too
            assert one_local_by_dfs(word), argv
    if code == 0 and argv[0] == "locality" and sigma is None and payload:
        assert (payload["locality"] == 1) == one_local_by_dfs(word), argv


# the top level, the 10 verbs and the 3 `cwd` sub-verbs of the full parser
PARSERS = dict(_parsers(build_parser()))
FLAGS = sorted({flag for p in PARSERS.values() for a in p._actions for flag in a.option_strings})
# verb names and a bogus verb, `--` and -h; small ints, short words, and verb names as plain values
ARGV_TOKENS = sorted({name for path in PARSERS for name in path}) + ["bogus", "--", "-h"]
ARGV_VALUES = ["-1", "0", "1", "2", "3", "5", "abcab", "a,b", "ab|cd", "L", "R", "-", "cycle", "graph", "speed"]


def _argument_unit(action):
    """A positional's value, or an option with its value if it takes one;
    the value fits the argument three times in four, else it is any value."""
    if action.nargs == 0:
        return st.just([action.option_strings[-1]])
    if action.choices:
        fitting = sorted(action.choices)
    else:
        fitting = ["1", "2", "3"] if action.type is int else ["abcab", "a,b", "-"]
    values = st.one_of(*[st.sampled_from(fitting)] * 3, st.sampled_from(ARGV_VALUES))
    if not action.option_strings:
        return values.map(lambda value: [value])
    return st.tuples(st.sampled_from(action.option_strings), values).map(list)


@st.composite
def wg_argv(draw):
    """A verb path, or none; then its parser's required arguments, each
    most of the time, and a few more of its arguments or stray tokens,
    flags and values, in any order. So a fair share of argvs parse."""
    path = draw(st.sampled_from(sorted(PARSERS)))
    own = [
        a for a in PARSERS[path]._actions
        if a.dest != "help" and not isinstance(a, argparse._SubParsersAction)
    ]
    units = [
        draw(_argument_unit(a)) for a in own
        if (a.required or not a.option_strings) and draw(st.sampled_from([True, True, True, False]))
    ]
    stray = st.sampled_from(ARGV_TOKENS + FLAGS + ARGV_VALUES).map(lambda token: [token])
    more = stray | st.sampled_from(own).flatmap(_argument_unit) if own else stray
    units = draw(st.permutations(units + draw(st.lists(more, max_size=3))))
    return [*path, *(token for unit in units for token in unit)]


def _parse(parser, argv):
    """Exit code (None when parsing succeeds), stdout, stderr and namespace."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@settings(database=None, max_examples=400, deadline=None)
@given(wg_argv())
@example(["--", "locality", "abcab"])
@example(["-h", "decide"])
@example(["cwd", "verify", "abcab", "--sigma", "a,b", "--k", "2", "--json"])
@example(["decide", "--graph", "-", "--class", "L", "--k", "1", "--budget-len", "5"])
@example(["speed", "--class", "R", "--k", "2", "--n", "5", "--json"])
def test_verb_only_parser_parses_like_the_full_one(argv):
    assert len(PARSERS) == 14 and {"--json", "--budget-letters", "--sigma", "--n"} <= set(FLAGS)
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        full = _parse(build_parser(), argv)
        verb_only = _parse(build_parser(argv), argv)
    # the namespace holds the handler, so equal namespaces run the same function
    assert verb_only == full, argv


# (k, word): a word with one to k copies of each of up to six letters
capped_words = st.integers(1, 4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(1, k), min_size=1, max_size=6)
        .map(lambda counts: [c for c, m in zip("abcdef", counts) for _ in range(m)])
        .flatmap(st.permutations)
        .map("".join),
    )
)


def _uniformize_by_prepending(word, k):
    """Prepend the letters of least count, in order of first occurrence,
    until each letter has k copies; yields every word on the way."""
    while True:
        yield word
        counts = {c: word.count(c) for c in word}
        least = min(counts.values())
        if least == k:
            return
        word = "".join(c for c in dict.fromkeys(word) if counts[c] == least) + word


@settings(database=None, max_examples=300, deadline=None)
@given(capped_words)
def test_prepending_least_count_letters_keeps_the_graph(case):
    # class R may search only words with exactly k copies of each letter
    k, word = case
    target = graph_of_word(word)
    for step in _uniformize_by_prepending(word, k):
        assert graph_of_word(step) == target, step


@settings(database=None, max_examples=300, deadline=None)
@given(capped_words)
def test_every_rotation_of_a_uniform_word_keeps_the_graph(case):
    # so a uniform word representing G may start with any letter
    k, word = case
    *_, uniform = _uniformize_by_prepending(word, k)
    target = graph_of_word(uniform)
    for i in range(1, len(uniform)):
        assert graph_of_word(uniform[i:] + uniform[:i]) == target, i


@settings(database=None, max_examples=150, deadline=None)
@given(expressions)
def test_parse_inverts_serialize(expr):
    assert parse(serialize(expr)) == expr


@settings(database=None, max_examples=150, deadline=None)
@given(expressions, st.data())
def test_parse_reads_any_spacing_between_tokens(expr, data):
    tokens = text_tokens.findall(serialize(expr))
    runs = data.draw(st.lists(spacing, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = runs[0] + "".join(token + run for token, run in zip(tokens, runs[1:]))
    assert parse(text) == expr


@settings(database=None, max_examples=300, deadline=None)
@given(grammar_text | grammar_tokens)
def test_parse_returns_or_raises_parse_error(text):
    try:
        expr = parse(text)
    except ParseError:
        return
    assert serialize(parse(serialize(expr))) == serialize(expr)
