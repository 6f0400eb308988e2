"""Hypothesis properties of the expression reader and writer."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wordgraphs import TWO, Connect, Create, ParseError, Rename, Union, parse, serialize  # noqa: E402

labels = st.just(TWO) | st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)
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

grammar_text = st.text(st.sampled_from('()" \\\n\t01twocreateunionconnectrename'), max_size=40)
grammar_tokens = st.lists(
    st.sampled_from(["(", ")", " ", "\n", "two", "0", "1", '"a"', '"', "\\",
                     "create", "union", "connect", "rename"]),
    max_size=30,
).map("".join)


@settings(database=None, max_examples=150, deadline=None)
@given(expressions)
def test_parse_inverts_serialize(expr):
    assert parse(serialize(expr)) == expr


@settings(database=None, max_examples=300, deadline=None)
@given(grammar_text | grammar_tokens)
def test_parse_returns_or_raises_parse_error(text):
    try:
        expr = parse(text)
    except ParseError:
        return
    assert serialize(parse(serialize(expr))) == serialize(expr)
