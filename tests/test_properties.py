"""Hypothesis properties of the word graph and of the expression reader and writer."""

from __future__ import annotations

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wordgraphs import TWO, Connect, Create, ParseError, Rename, Union, locality, parse, serialize  # noqa: E402
from wordgraphs.graphs import Graph  # noqa: E402
from wordgraphs.words import _alternation_scan, graph_of_word  # noqa: E402

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
