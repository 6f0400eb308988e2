"""Independent output checkers for the benchmark.

None of these import wordgraphs. Each recomputes an answer by a different
method than the package uses, so a wrong answer from the program shows up
as a disagreement here rather than being checked against itself.
"""

from __future__ import annotations

import re
from typing import Sequence

Word = Sequence[str]


def _positions(word: Word) -> dict[str, list[int]]:
    positions: dict[str, list[int]] = {}
    for p, x in enumerate(word):
        positions.setdefault(x, []).append(p)
    return positions


def _alternate(pa: list[int], pb: list[int]) -> bool:
    if abs(len(pa) - len(pb)) > 1:
        return False
    merged = sorted([(p, 0) for p in pa] + [(p, 1) for p in pb])
    return all(merged[i][1] != merged[i + 1][1] for i in range(len(merged) - 1))


def alternation_graph(word: Word) -> tuple[frozenset, frozenset]:
    """Nodes and sorted-pair edges of the word's graph, pair by pair."""
    positions = _positions(word)
    letters = sorted(positions)
    edges = set()
    for i, a in enumerate(letters):
        for b in letters[i + 1 :]:
            if _alternate(positions[a], positions[b]):
                edges.add((a, b))
    return frozenset(letters), frozenset(edges)


def block_counts(word: Word, sigma: Sequence[str]) -> list[int]:
    """Block count after each marking stage, by scanning the marked positions."""
    n = len(word)
    marked = [False] * n
    out = []
    for c in sigma:
        for p, x in enumerate(word):
            if x == c:
                marked[p] = True
        out.append(sum(1 for p in range(n) if marked[p] and (p == 0 or not marked[p - 1])))
    return out


def exact_locality(word: Word) -> tuple[int, tuple[str, ...]]:
    """Locality and its lexicographically smallest witness by a subset DP.

    f(S), the block count once the letter set S is marked, does not depend
    on the marking order: it is the occurrences of S minus the adjacent
    position pairs inside S. g(S) is the best block maximum still needed to
    finish from S, so the locality is g(empty set); walking forwards with the
    smallest letter that keeps max(f, g) within it gives the witness.
    """
    letters = sorted(set(word))
    m = len(letters)
    if m > 12:
        raise ValueError(f"{m} letters; the tables below cover at most 12")
    index = {c: i for i, c in enumerate(letters)}
    occ = [0] * m
    pairs = [[0] * m for _ in range(m)]
    for p, x in enumerate(word):
        j = index[x]
        occ[j] += 1
        if p:
            i = index[word[p - 1]]
            pairs[i][j] += 1
            if i != j:
                pairs[j][i] += 1
    full = (1 << m) - 1
    # cross[c][h][x]: adjacent pairs between c and the letters of the
    # h-th six-bit slice of a set whose bits there are x
    cross = [
        [
            [sum(pairs[c][6 * h + d] for d in range(min(6, m - 6 * h)) if x >> d & 1) for x in range(64)]
            for h in range(2)
        ]
        for c in range(m)
    ]
    f = [0] * (full + 1)
    for s in range(1, full + 1):
        c = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        low, high = cross[c]
        f[s] = f[rest] + occ[c] - pairs[c][c] - low[rest & 63] - high[rest >> 6 & 63]
    g = [0] * (full + 1)
    bits = [1 << c for c in range(m)]
    for s in range(full - 1, -1, -1):
        best = None
        for bit in bits:
            if not s & bit:
                t = s | bit
                v = f[t] if f[t] > g[t] else g[t]
                if best is None or v < best:
                    best = v
        g[s] = best
    target = g[0]
    witness = []
    s = 0
    while s != full:
        for c in range(m):
            t = s | 1 << c
            if not s >> c & 1 and f[t] <= target and g[t] <= target:
                witness.append(letters[c])
                s = t
                break
    return target, tuple(witness)


def is_threshold(nodes: Sequence[str], edges: Sequence[tuple[str, str]]) -> bool:
    """Threshold test by peeling isolated or dominating vertices."""
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    while adj:
        for v, near in adj.items():
            if not near or len(near) == len(adj) - 1:
                break
        else:
            return False
        for u in adj.pop(v):
            adj[u].discard(v)
    return True


# ---------------------------------------------------------------------------
# clique-width expressions: a stack-based reader and evaluator, so that
# expressions of any depth can be checked

_TOKEN = re.compile(r'\s*(?:(\()|(\))|"((?:[^"\\]|\\.)*)"|([^\s()"]+))')


def read_expression(text: str):
    """Nested lists of the s-expression; quoted ids become ("id", text)."""
    stack: list[list] = [[]]
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad expression text at {pos}")
        pos = m.end()
        if m.group(1):
            stack.append([])
        elif m.group(2):
            done = stack.pop()
            stack[-1].append(done)
        elif m.group(3) is not None:
            stack[-1].append(("id", re.sub(r"\\(.)", r"\1", m.group(3))))
        else:
            stack[-1].append(m.group(4))
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("unbalanced expression text")
    return stack[0][0]


def _label(item) -> str | tuple[int, ...]:
    if item == "two":
        return "two"
    return tuple(int(b) for b in item)


def evaluate_expression(tree) -> tuple[dict, frozenset, set]:
    """Final labels, edges and every label mentioned, without recursion."""
    results: list[tuple[dict, set]] = []
    mentioned: set = set()
    todo = [(tree, False)]
    while todo:
        node, expanded = todo.pop()
        head = node[0]
        if head == "create":
            label = _label(node[1])
            mentioned.add(label)
            results.append(({node[2][1]: label}, set()))
            continue
        if not expanded:
            todo.append((node, True))
            children = [node[1], node[2]] if head == "union" else [node[3]]
            todo.extend((child, False) for child in reversed(children))
            continue
        if head == "union":
            right_labels, right_edges = results.pop()
            labels, edges = results.pop()
            if labels.keys() & right_labels.keys():
                raise ValueError("node created on both sides of a union")
            labels.update(right_labels)
            edges |= right_edges
            results.append((labels, edges))
            continue
        first, second = _label(node[1]), _label(node[2])
        mentioned.update((first, second))
        labels, edges = results[-1]
        if head == "connect":
            ones = [v for v, l in labels.items() if l == first]
            twos = [v for v, l in labels.items() if l == second]
            edges.update((u, v) if u < v else (v, u) for u in ones for v in twos)
        elif head == "rename":
            for v, l in labels.items():
                if l == first:
                    labels[v] = second
        else:
            raise ValueError(f"unknown operation {head!r}")
    (labels, edges), = results
    return labels, frozenset(edges), mentioned


def final_stage_labels(word: Word, k: int) -> dict:
    """Block labels once every letter is marked: one block holds the word."""
    counts: dict[str, int] = {}
    for x in word:
        counts[x] = counts.get(x, 0) + 1
    single = (1,) + (0,) * (k - 1)
    return {x: "two" if c >= 2 else single for x, c in counts.items()}
