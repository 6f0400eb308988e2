"""Clique-width expressions and their construction from local words.

An expression builds a labeled graph from four operations: create a node,
disjoint union, connect all nodes of one label to all nodes of another,
and relabel. `build_expression` turns a word together with a k-block
marking witness into such an expression over the block labels of
`locality.block_labels` plus the reserved all-zero tuple, which tags the
single node not yet wired into the rest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Sequence, Union as TypeUnion

from .locality import TWO, Label, _check_k, _marking_stages, _occupancy_label, label_sort_key
from .words import Word, _letter_masks

if TYPE_CHECKING:
    from .graphs import Graph


class RenameCycleError(RuntimeError):
    """The per-stage relabeling map turned out cyclic; this indicates a bug."""


class _Node:
    """==, hash and repr of the node classes, over explicit stacks: any depth."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if isinstance(a, _Node) and a.__class__ is b.__class__:
                pairs.extend(zip(_values(a), _values(b)))
            elif a != b:
                return False
        return True

    def __hash__(self) -> int:
        done: list[int] = []  # hashes of the finished subtrees, left to right
        for node in _postorder(self):
            head, labels, ids, children = _parts(node)
            cut = len(done) - len(children)
            done[cut:] = [hash((head, *labels, *ids, *done[cut:]))]
        return done[0]

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list[object] = [self]  # nodes still to write and finished text
        while stack:
            item = stack.pop()
            if not isinstance(item, _Node):
                out.append(item)
                continue
            pieces: list[object] = [type(item).__qualname__ + "("]
            for i, (field, value) in enumerate(zip(fields(item), _values(item))):
                pieces.append((", " if i else "") + field.name + "=")
                pieces.append(value if isinstance(value, _Node) else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Create(_Node):
    label: Any
    node: str


@dataclass(frozen=True, eq=False, repr=False)
class Union(_Node):
    left: "CwdExpression"
    right: "CwdExpression"


@dataclass(frozen=True, eq=False, repr=False)
class Connect(_Node):
    first: Any
    second: Any
    child: "CwdExpression"

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError(f"connect needs two distinct labels, got {self.first!r}")


@dataclass(frozen=True, eq=False, repr=False)
class Rename(_Node):
    old: Any
    new: Any
    child: "CwdExpression"


CwdExpression = TypeUnion[Create, Union, Connect, Rename]


@dataclass(frozen=True)
class LabeledGraph:
    graph: Graph
    labels: dict[str, Any]


def _parts(node: CwdExpression) -> tuple[str, tuple, tuple, tuple]:
    """(head, labels, node ids, children): the one place that knows the node kinds.

    Every class lists its fields in that order, so
    cls(*labels, *ids, *children) rebuilds the node.
    """
    if isinstance(node, Create):
        return "create", (node.label,), (node.node,), ()
    if isinstance(node, Union):
        return "union", (), (), (node.left, node.right)
    if isinstance(node, Connect):
        return "connect", (node.first, node.second), (), (node.child,)
    if isinstance(node, Rename):
        return "rename", (node.old, node.new), (), (node.child,)
    raise TypeError(f"not an expression node: {node!r}")


def _values(node: CwdExpression) -> tuple:
    """The field values of node, in field order."""
    _, labels, ids, children = _parts(node)
    return labels + ids + children


def _postorder(expr: CwdExpression) -> list[CwdExpression]:
    """The nodes of expr, children before parents and left before right."""
    order, stack = [], [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(_parts(node)[3])
    return order[::-1]


def eval_expression(expr: CwdExpression) -> LabeledGraph:
    """Bottom-up evaluation. Rejects a node id created more than once.

    The bit-parallel walk `_evaluate`, which `build_expression` also checks
    its result with, gives node ids bits in creation order. A union costs
    one OR per label of one side, a connect one per member of its two label
    groups and a rename one, on masks of up to N bits for N creates; the
    edge pairs and labels are then read off, one step per edge and node.
    """
    from .graphs import Graph  # imported here so that `wg cwd build` and `cwd verify` never load graphs

    index: dict[str, int] = {}
    _, rows, groups, _ = _evaluate(expr, index)
    names = list(index)  # names[i] holds bit i
    edges = [(names[i], names[j]) for i, row in enumerate(rows) for j in _bits(row >> i << i)]
    labels = {names[j]: label for label, members in groups.items() for j in _bits(members)}
    return LabeledGraph(Graph(names, edges), labels)


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def labels_used(expr: CwdExpression) -> frozenset:
    """Every label expr mentions: in a create, a connect or either side of a rename."""
    found: list = []
    stack = [expr]
    while stack:
        _, labels, _, children = _parts(stack.pop())
        found += labels
        stack += children
    return frozenset(found)


# ---------------------------------------------------------------------------
# serialization
#
#   expr  := (create LABEL ID) | (union expr expr)
#          | (connect LABEL LABEL expr) | (rename LABEL LABEL expr)
#   LABEL := two | ( BIT+ )
#   ID    := double-quoted string, \", \\ and \n (newline) escaped

class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"parse error at line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _label_text(label: Any) -> str:
    if label is TWO:
        return "two"
    if (
        isinstance(label, tuple)
        and label
        and all(isinstance(b, int) and b in (0, 1) for b in label)
    ):
        return "(" + " ".join(str(int(b)) for b in label) + ")"
    raise ValueError(f"label {label!r} does not serialize: need a 0/1 tuple or TWO")


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def serialize(expr: CwdExpression) -> str:
    """The one-line text of expr; `parse` reads it back to an equal expression.

    The four node classes are told apart by their exact class, and each
    node's opening text is written in one piece; any other object goes
    through `_parts`, so a subclass writes like its base class and a
    non-node raises TypeError. Each label object is checked and formatted
    once per call, so a value such as (1.0, 0), equal to (1, 0) but not
    made of bits, still raises. `_build_expression` and `parse` hand out
    one object per label value, so on their expressions that is once per
    distinct label.
    """
    out: list[str] = []
    texts: dict[int, str] = {}  # id of a label -> its text; expr keeps every label alive
    # nodes still to write, and the closing text as close (")") and gap
    # (" "): objects made here, so no caller can pass one in place of a node
    close, gap = object(), object()
    stack: list[object] = [expr]
    while stack:
        item = stack.pop()
        cls = item.__class__
        if item is close:
            out.append(")")
        elif item is gap:
            out.append(" ")
        elif cls is Create:
            text = texts.get(id(item.label)) or _text_of(item.label, texts)
            out.append(f"(create {text} {_quote(item.node)})")
        elif cls is Union:
            out.append("(union ")
            stack += (close, item.right, gap, item.left)
        elif cls is Connect:
            first = texts.get(id(item.first)) or _text_of(item.first, texts)
            second = texts.get(id(item.second)) or _text_of(item.second, texts)
            out.append(f"(connect {first} {second} ")
            stack += (close, item.child)
        elif cls is Rename:
            old = texts.get(id(item.old)) or _text_of(item.old, texts)
            new = texts.get(id(item.new)) or _text_of(item.new, texts)
            out.append(f"(rename {old} {new} ")
            stack += (close, item.child)
        else:
            head, labels, ids, children = _parts(item)
            words = ["(" + head]
            words += [texts.get(id(label)) or _text_of(label, texts) for label in labels]
            words += map(_quote, ids)
            out.append(" ".join(words))
            stack.append(close)
            for child in reversed(children):
                stack += (child, gap)
    return "".join(out)


def _text_of(label: Any, texts: dict[int, str]) -> str:
    """The text of label, stored in texts under its id."""
    text = texts[id(label)] = _label_text(label)
    return text


# Whitespace goes with the token after it, so every match but the empty one
# at the end holds one token. A string whose longest valid prefix stops
# short of its closing quote leaves the third group empty.
_TOKENS = re.compile(r'\s*(?:([()])|"((?:[^"\\\n]|\\["\\n])*)("?)|([^\s()"]+)|\Z)')
_ESCAPE = re.compile(r"\\(.)")


def _unescape(m: re.Match) -> str:
    return "\n" if m[1] == "n" else m[1]


def _position(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Kinds ("(", ")", "atom", "string"), texts and start offsets of the tokens."""
    kinds: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    for m in _TOKENS.finditer(text):
        paren, body, closed, atom = m.groups()
        token = paren or atom
        if token:
            kinds.append(paren or "atom")
            texts.append(token)
            offsets.append(m.end() - len(token))
        elif closed:
            kinds.append("string")
            texts.append(_ESCAPE.sub(_unescape, body) if "\\" in body else body)
            offsets.append(m.start(2) - 1)
        elif body is not None:
            start, stop = m.start(2) - 1, m.end()
            if stop == len(text):
                raise ParseError("unterminated string", *_position(text, start))
            message = "bad escape in string" if text[stop] == "\\" else "newline inside string"
            raise ParseError(message, *_position(text, stop))
    return kinds, texts, offsets


# head -> (class, labels, node ids, children), counted in field order
_FORMS = {
    "create": (Create, 1, 1, 0),
    "union": (Union, 0, 0, 2),
    "connect": (Connect, 2, 0, 1),
    "rename": (Rename, 2, 0, 1),
}
_BITS = {"0": 0, "1": 1}


def _error(text: str, offsets: list[int], i: int, message: str) -> ParseError:
    """A ParseError at token i, or at the last token when i is past the end."""
    if i < len(offsets):
        return ParseError(message, *_position(text, offsets[i]))
    if offsets:
        return ParseError(message + " (at end of input)", *_position(text, offsets[-1]))
    return ParseError(message + " (empty input)", 1, 1)


def parse(text: str) -> CwdExpression:
    """Read one expression. A ParseError names the line and column of the
    first token that does not fit the grammar.

    One pass over the tokens with a stack of open forms, so any depth reads.
    """
    kinds, texts, offsets = _tokenize(text)
    end = len(kinds)
    kinds.append("")  # reading one token past the end finds no kind
    open_forms: list[tuple[int, type, list, int]] = []  # (head token, class, fields, field count)
    intern = {}.setdefault  # one object per label value, for `serialize`
    i = 0
    while True:
        if kinds[i] != "(":
            raise _error(text, offsets, i, "expected '('")
        if kinds[i + 1] != "atom":
            raise _error(text, offsets, i + 1, "expected 'atom'")
        head = i + 1
        form = _FORMS.get(texts[head])
        if form is None:
            raise _error(text, offsets, head, f"expected create/union/connect/rename, got {texts[head]!r}")
        cls, labels, ids, children = form
        i += 2
        fields: list = []
        for _ in range(labels):
            if kinds[i] == "atom":
                if texts[i] != "two":
                    raise _error(text, offsets, i, f"expected a label, got {texts[i]!r}")
                fields.append(TWO)
                i += 1
                continue
            if kinds[i] != "(":
                raise _error(text, offsets, i, "expected '('")
            bits = []
            i += 1
            while kinds[i] == "atom":
                bit = _BITS.get(texts[i])
                if bit is None:
                    raise _error(text, offsets, i, f"expected bit 0 or 1, got {texts[i]!r}")
                bits.append(bit)
                i += 1
            if kinds[i] != ")":
                raise _error(text, offsets, i, "expected ')'")
            i += 1
            if not bits:
                raise _error(text, offsets, i, "a tuple label needs at least one bit")
            label = tuple(bits)
            fields.append(intern(label, label))
        for _ in range(ids):
            if kinds[i] != "string":
                raise _error(text, offsets, i, "expected 'string'")
            fields.append(texts[i])
            i += 1
        if children:
            open_forms.append((head, cls, fields, labels + ids + children))
            continue
        node = cls(*fields)
        while True:
            if kinds[i] != ")":
                raise _error(text, offsets, i, "expected ')'")
            i += 1
            if not open_forms:
                if i != end:
                    raise _error(text, offsets, i, "trailing input after expression")
                return node
            head, cls, fields, count = open_forms[-1]
            fields.append(node)
            if len(fields) < count:
                break
            open_forms.pop()
            try:
                node = cls(*fields)
            except ValueError:  # only Connect checks its fields
                raise _error(text, offsets, head, "connect needs two distinct labels") from None


# ---------------------------------------------------------------------------
# construction from a word and a marking witness

def schedule_renames(mapping: dict) -> list[tuple[Any, Any]]:
    """Order the relabelings of one stage so no target gets clobbered.

    mapping sends each present label to its replacement; self-loops are
    dropped. A rename may run only after the rename of its target label,
    so the result is in application order (first entry innermost). A cycle
    among the pending renames cannot be realized and raises.
    """
    pending = {old: new for old, new in mapping.items() if old != new}
    order: list[tuple[Any, Any]] = []
    while pending:
        ready = sorted(
            (old for old in pending if pending[old] not in pending),
            key=label_sort_key,
        )
        if not ready:
            raise RenameCycleError(f"cyclic relabeling among {sorted(pending, key=label_sort_key)!r}")
        for old in ready:
            order.append((old, pending.pop(old)))
    return order


def _next_label(label: Label, origins: tuple[tuple[int, ...], ...], k: int) -> Label:
    """A survivor's label after a stage whose blocks grew out of `origins`.

    A survivor's positions stay put, so its count in a new block is the
    sum of its counts in the old blocks that block swallowed.
    """
    if label is TWO:
        return TWO
    return _occupancy_label([sum([label[j] for j in org]) for org in origins], k)


def build_expression(word: Word, sigma: Sequence[str], k: int) -> CwdExpression:
    """Compile a word with a k-block marking witness into an expression.

    Stage by stage the freshly marked letter enters with the reserved
    all-zero label, is wired to the labels of the letters it alternates
    with, and the survivors are relabeled in two passes: a merge pass onto
    their new block label restricted to the blocks that grew out of
    earlier ones, packed to the left (overflow collapsing to TWO), then a
    shift pass onto the new block label itself, which spreads those slots
    over the brand-new blocks. A survivor's new label is a function of its
    old one and of the stage's origins, so the survivors are carried as
    one letter set per label, at most 2^k + 1 of them. The label bound
    rests on letters that share a label acting as one; that is checked at
    every stage: each set must lie inside or outside the new letter's
    neighbourhood, or RuntimeError is raised.

    The stages come from `locality._marking_stages`, and the letters'
    neighbourhoods from `words._letter_masks`. A stage's relabel plan
    (`_stage_plan`, O(2^k k) label work) depends only on its origins and
    the labels held, so a build works it out once per distinct pair. A
    stage costs a lookup of that pair and 2^k + 1 operations on |A|-bit
    letter masks, plus the new letter's occurrences; no stage looks at
    every letter. The result is checked before returning
    (`_check_on_masks`, by the walk that `eval_expression` runs): it must
    evaluate to the graph of the word with the final stage's block
    labels, within 2^k + 1 labels.
    """
    return _build_expression(word, sigma, k)[0]


def _build_expression(word: Word, sigma: Sequence[str], k: int) -> tuple[CwdExpression, frozenset]:
    """`build_expression` with the `labels_used` set of its result, which
    its check on the letter masks collects in its one walk."""
    _check_k(k)
    if not len(word):
        raise ValueError("the empty word has no expression")
    stages = _marking_stages(word, sigma)
    worst = max(len(blocks) for _, blocks, _, _ in stages)
    if worst > k:
        raise ValueError(f"{tuple(sigma)!r} reaches {worst} blocks, more than k={k}")
    letters, near = _letter_masks(word)
    index = {c: i for i, c in enumerate(letters)}
    zero = (0,) * k
    interned = {zero: zero}  # one object per label value, so `serialize` formats each once

    # stage shape -> its relabel plan, kept for this build only: plans kept
    # across calls would speed up in-process callers but never a `wg` run
    plans: dict[tuple, tuple] = {}
    expr: CwdExpression | None = None
    groups: dict[Label, int] = {}  # label -> bitmask of the survivors holding it
    for stage, (a, _, origins, counts) in enumerate(stages, 1):
        piece: CwdExpression = Create(zero, a)
        expr = piece if expr is None else Union(piece, expr)
        i = index[a]
        adj = near[i]
        shape = (origins, tuple(groups))
        plan = plans.get(shape)
        if plan is None:
            plan = plans[shape] = _stage_plan(*shape, k, interned)
        shifts, ranked, renames = plan
        wired = set()
        moved: dict[Label, int] = {}
        for (label, members), shifted in zip(groups.items(), shifts):
            hit = members & adj
            if hit:
                if hit != members:
                    raise RuntimeError(
                        f"internal: letters labeled {label!r} part ways at stage {stage}"
                    )
                wired.add(label)
            moved[shifted] = moved.get(shifted, 0) | members
        for label in ranked:
            if label in wired:
                expr = Connect(label, zero, expr)
        for old, new in renames:
            expr = Rename(old, new, expr)
        own = _occupancy_label(counts, k)
        own = interned.setdefault(own, own)
        expr = Rename(zero, own, expr)
        moved[own] = moved.get(own, 0) | 1 << i
        groups = moved
    assert expr is not None

    used = _check_on_masks(expr, letters, near, groups)
    if len(used) > 2 ** k + 1:
        raise RuntimeError("internal: expression uses more labels than allowed")
    return expr, used


def _stage_plan(
    origins: tuple[tuple[int, ...], ...], held: tuple[Label, ...], k: int, interned: dict
) -> tuple[list[Label], list[Label], list[tuple[Any, Any]]]:
    """The relabel plan of a stage whose blocks grew out of origins: each
    held label's shifted label, in held order; the held labels in connect
    order; the merge renames, then the shift renames, each pass ordered by
    `schedule_renames`. New label values are interned in interned.
    """
    positions = [j for j, org in enumerate(origins) if org]
    shifts: list[Label] = []
    merge_map: dict[Label, Label] = {}
    shift_map: dict[Label, Label] = {}
    for label in held:
        shifted = _next_label(label, origins, k)
        shifted = merged = interned.setdefault(shifted, shifted)
        if shifted is not TWO:
            merged = tuple(shifted[j] for j in positions) + (0,) * (k - len(positions))
            merged = interned.setdefault(merged, merged)
        merge_map[label] = merged
        shift_map[merged] = shifted
        shifts.append(shifted)
    ranked = sorted(held, key=label_sort_key)
    return shifts, ranked, schedule_renames(merge_map) + schedule_renames(shift_map)


def _check_on_masks(
    expr: CwdExpression, letters: list[str], near: list[int], groups: dict[Label, int]
) -> frozenset:
    """Raise RuntimeError unless expr builds the graph whose letter j has
    the neighbour mask near[j], with the letters of mask groups[label]
    holding that label; a node created twice raises `eval_expression`'s
    ValueError. Returns `labels_used(expr)`, collected in the same walk.

    The walk is `eval_expression`'s (`_evaluate`) with letter j on bit j:
    a node id the word lacks gets a bit past the last letter and fails the
    node mask comparison. No edge pairs are read off the rows.
    """
    index = {c: i for i, c in enumerate(letters)}
    nodes, rows, labels, used = _evaluate(expr, index)
    if nodes != (1 << len(letters)) - 1 or rows != near:
        raise RuntimeError("internal: expression does not evaluate to the word's graph")
    if labels != groups:
        raise RuntimeError("internal: evaluated labels disagree with the final stage")
    return frozenset(used)


def _evaluate(
    expr: CwdExpression, index: dict[str, int]
) -> tuple[int, list[int], dict[Any, int], set]:
    """Evaluate expr bit-parallel: (node mask, neighbour row per bit, label
    groups as masks, labels used). A node id takes its bit from index,
    or is added to it with the next free bit. A node created twice raises
    ValueError naming the clashing ids, sorted.

    A node of a subclass is walked as one of its base class, and any other
    object raises `_parts`'s TypeError.

    Each subtree keeps the mask of its nodes and of each label's members,
    and each node a row of its neighbours. A union ORs the masks, a
    connect ORs each group's mask into the rows of the other group's
    members, and a rename ORs the two groups.
    """
    order, stack = [], [expr]  # the nodes, parents before children
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is Union:
            stack += (node.left, node.right)
        elif cls is Connect or cls is Rename:
            stack.append(node.child)
        elif cls is not Create:
            head, labels, ids, children = _parts(node)
            node = _FORMS[head][0](*labels, *ids, *children)
            stack += children
        order.append(node)
    rows = [0] * len(index)
    done: list[tuple[int, dict[Any, int]]] = []  # per finished subtree: nodes, label groups
    used = set()
    for node in reversed(order):
        cls = node.__class__
        if cls is Create:
            used.add(node.label)
            i = index.setdefault(node.node, len(index))
            if i == len(rows):
                rows.append(0)
            done.append((1 << i, {node.label: 1 << i}))
        elif cls is Union:
            nodes, labels = done.pop()
            other_nodes, other_labels = done.pop()
            clash = nodes & other_nodes
            if clash:
                names = sorted(c for c, j in index.items() if clash >> j & 1)
                raise ValueError(f"node(s) {names!r} created on both sides of a union")
            if len(labels) < len(other_labels):
                labels, other_labels = other_labels, labels
            for label, members in other_labels.items():
                labels[label] = labels.get(label, 0) | members
            done.append((nodes | other_nodes, labels))
        elif cls is Connect:
            used.add(node.first)
            used.add(node.second)
            labels = done[-1][1]
            first, second = labels.get(node.first, 0), labels.get(node.second, 0)
            if first and second:
                for members, other in ((first, second), (second, first)):
                    while members:
                        low = members & -members
                        members ^= low
                        rows[low.bit_length() - 1] |= other
        else:
            used.add(node.old)
            used.add(node.new)
            labels = done[-1][1]
            if node.old in labels:
                labels[node.new] = labels.pop(node.old) | labels.get(node.new, 0)
    nodes, labels = done.pop()
    return nodes, rows, labels, used
