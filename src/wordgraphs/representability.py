"""Word representations of graphs: occurrence bounds and membership search.

Class "R" with parameter k holds the graphs of words using at most k
copies of each letter; class "L" holds the graphs of k-local words. For
"L" the search may cap every letter at k + 1 copies: a k-local word with
an oversized letter can always be rewritten, see `uniformize`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import BudgetExceededError
from .graphs import (
    Graph,
    _GraphClass,
    _canonical_form,
    _check_node_budget,
    _clique_parts,
    _compress,
    _graph_classes,
    _is_threshold,
    _neighbour_masks,
    _twins,
)
from .locality import (
    LETTER_BUDGET_DEFAULT,
    MarkingSequence,
    _check_k,
    is_k_local,
    is_k_local_with,
    locality,
)
from .words import Word, _letter_masks, make_word

DECIDE_NODE_BUDGET_DEFAULT = 5


def oversized_letters(
    word: Word,
    k: int,
    sigma: Sequence[str] | None = None,
    *,
    letter_budget: int = LETTER_BUDGET_DEFAULT,
) -> frozenset[str]:
    """Letters of a k-local word with more than k + 1 occurrences.

    The word must be k-local; pass a witnessing sequence or one is
    searched for. Every returned letter is checked to alternate with no
    other letter, which is forced at these occurrence counts.
    """
    _check_k(k)
    if sigma is not None:
        if not is_k_local_with(word, sigma, k):
            raise ValueError(f"{sigma!r} does not witness {k}-locality")
    else:
        found, _ = locality(word, letter_budget=letter_budget)
        if found > k:
            raise ValueError(f"word has locality {found}, not {k}-local")
    counts = Counter(word)
    oversized = frozenset(c for c, m in counts.items() if m > k + 1)
    letters, masks = _letter_masks(word)
    for c, near in zip(letters, masks):
        if c in oversized and near:
            partners = [d for j, d in enumerate(letters) if near >> j & 1]
            raise RuntimeError(f"internal: oversized letter {c!r} alternates with {partners!r}")
    return oversized


def uniformize(
    word: Word, k: int, sigma: Sequence[str]
) -> tuple[str | tuple[str, ...], MarkingSequence]:
    """Rewrite a k-local word so every letter occurs at most k + 1 times.

    Oversized letters alternate with nothing, so their occurrences are
    deleted and each such letter is re-introduced as a doubled pair in
    front of the remainder. The witness marks the survivors as before,
    then the prepended letters from the innermost pair outwards; each of
    those stages only grows a single left-expanding block.
    """
    if not is_k_local_with(word, sigma, k):
        raise ValueError(f"{tuple(sigma)!r} does not witness {k}-locality")
    counts = Counter(word)
    oversized = sorted(c for c, m in counts.items() if m > k + 1)
    if not oversized:
        return make_word(word), tuple(sigma)
    over = set(oversized)
    rest = [x for x in word if x not in over]
    prefix = [c for c in oversized for _ in range(2)]
    new_sigma = tuple(c for c in sigma if c not in over) + tuple(reversed(oversized))
    return make_word(prefix + rest), new_sigma


def represent_clique_partition(
    parts: Sequence[Sequence[str]],
) -> tuple[str | tuple[str, ...], MarkingSequence]:
    """A 2-local word whose graph is the disjoint union of the given cliques.

    Lays the parts out as A1..Am Am..A1; same-part letters then alternate
    while cross-part pairs wrap around each other. The witness marks the
    innermost part first, keeping one growing centre block plus at most
    one satellite at every stage.
    """
    ordered = _clique_parts(parts)
    if not ordered:
        raise ValueError("need at least one part")
    first = [x for part in ordered for x in part]
    second = [x for part in reversed(ordered) for x in part]
    sigma = tuple(x for part in reversed(ordered) for x in part)
    return make_word(first + second), sigma


@dataclass(frozen=True)
class MembershipQuery:
    """One membership question: does `graph` lie in the class?

    class_kind "R" asks for a word with at most k copies per letter;
    "L" asks for a k-local word. max_len defaults to the complete bound
    (k or k + 1 copies of each of the n letters).
    """

    graph: Graph
    class_kind: str
    k: int
    node_budget: int = DECIDE_NODE_BUDGET_DEFAULT
    max_len: int | None = None


def decide_membership(
    query: MembershipQuery,
) -> tuple[bool, str | tuple[str, ...] | None]:
    """Exhaustive bounded search for a representing word.

    Tries total lengths in ascending order and, within a length, words in
    lexicographic order, so the witness is the lexicographically smallest
    among the shortest. A prefix dies as soon as an edge pair repeats a
    letter in its projection, a non-edge pair can no longer pick up a
    repeat, or some letter can no longer appear. Three cuts skip what
    theory already refutes:

    - Letters that occur once pairwise alternate, so they form a clique
      and every word for G has length at least 2n - omega(G); the lengths
      start there.
    - Both classes are closed under induced subgraphs. When the shortest
      length holds no word, each G - v is searched for any word up to its
      complete length, and G is a non-member as soon as one of them has
      none. A subgraph's "no" counts only when its complete length fits
      within max_len.
    - The graphs of 1-local words are exactly the threshold graphs, the
      graphs with no induced 2K2, C4 or P4 (Chvatal and Hammer, 1977).
      So an L,1 query whose max_len reaches the complete bound 2n answers
      "no" for a graph that fails `graphs._is_threshold`, with no search.
      Under a lower cap the search runs as before: its "no" or its
      BudgetExceededError depends on the cap, which the theorem does not
      see. `wg speed` does not take this cut, so its L,1 threshold
      cross-check compares `_is_threshold` with a search, not with itself.
      That search's leaf check `is_k_local(word, 1)` peels the word from
      its ends, while `_is_threshold` peels the graph's isolated and
      dominating vertices: two tests on different objects, so the
      cross-check stays independent.

    A fourth cut skips words that only rename one already tried. For an
    automorphism pi of G, pi(w) represents G with the same copy counts,
    locality and length, so only the lexicographically least word of each
    orbit need be searched (lex-leader symmetry breaking): a letter c is
    skipped when some pi fixes every letter placed so far and maps c to a
    smaller letter, and pi is dropped once it maps a placed letter to a
    larger one. The least word of an orbit is never cut, so the answer and
    the witness stay those of the full search. The shortest length uses
    the twin transpositions (`graphs._twins`); the longer ones, reached
    only when neither that length nor a G - v settled the graph, and the
    G - v searches use the `graphs._canonical_form` generators.

    Each length of G is one call of the word search `_search_exact_length`,
    which accepts any length in a window [lo, hi], with lo = hi, one length
    at a time in ascending order. A G - v needs only yes or no, so it is one
    window from its shortest to its complete length (`_any_word`), as
    `wg speed` searches a class: each prefix is visited once, not once per
    length. The search reads only the masks and the symmetries, and spells
    its word in node indices, in the order of `Graph.sorted_nodes`; the
    witness is renamed to the node names once.

    The search space is complete for both classes, so within budget the
    negative answer is sound; a graph over budget raises instead of
    guessing.
    """
    g = query.graph
    maxc, local_k = _copy_rule(query.class_kind, query.k)
    for field in ("node_budget", "max_len"):
        if (getattr(query, field) or 0) < 0:
            raise ValueError(f"{field} must be >= 0, got {getattr(query, field)}")
    _check_node_budget(g, query.node_budget)
    n = len(g.nodes)
    if n == 0:
        return True, make_word(())
    letters = g.sorted_nodes()
    complete_len = maxc * n
    max_len = complete_len if query.max_len is None else min(query.max_len, complete_len)
    adj = _neighbour_masks(g)
    if local_k == 1 and max_len == complete_len and not _is_threshold(adj):
        return False, None

    def is_refuted(v: int) -> bool:
        """Whether G - v has no word up to its complete length."""
        sub = [i for i in range(n) if i != v]
        sub_adj = [_compress(adj[i], sub) for i in sub]
        return _any_word(sub_adj, _canonical_form(sub_adj)[3], maxc, local_k, maxc * (n - 1)) is None

    shortest = 2 * n - _clique_number(adj)
    twins, generators = _twins(adj), []
    for length in range(shortest, max_len + 1):
        if length == shortest + 1:
            twins, generators = [], _canonical_form(adj)[3]
        witness = _search_exact_length(adj, maxc, local_k, length, length, twins, generators)
        if witness is not None:
            return True, make_word(map(letters.__getitem__, witness))
        # G - v pays only when its "no" is conclusive within max_len
        if (
            length == shortest < complete_len
            and maxc * (n - 1) <= max_len
            and any(map(is_refuted, range(n)))
        ):
            return False, None
    _check_conclusive(max_len, complete_len)
    return False, None


def _copy_rule(class_kind: str, k: int) -> tuple[int, int | None]:
    """(maxc, local_k) of a class: at most maxc copies of each letter, and
    for class "L" the locality k, None for class "R"."""
    _check_k(k)
    if class_kind not in ("L", "R"):
        raise ValueError(f'class_kind must be "L" or "R", got {class_kind!r}')
    return (k, None) if class_kind == "R" else (k + 1, k)


def _speed_layers(
    class_kind: str, k: int, n: int, *, node_budget: int, max_len: int | None
) -> Iterator[list[tuple[_GraphClass, str | None]]]:
    """The `wg speed` sweep: each isomorphism class on m nodes with a word
    for it, or None for a non-member, one list per decided size m, smallest
    first; the last list is always m = n. A word is on the class's
    canonical labeling, letter chr(i) standing for node i (node "i + 1" of
    the class's graph), and need not be the least one. The 0-node class's
    word is "", so read an answer as `word is not None`.

    L_k and R_k are hereditary, so a class with a refuted parent (one of
    its G - v, see `graphs._GraphClass`) is a non-member and no search runs
    for it. Every other class is first settled by extension: the word kept
    for a parent, renamed into the class's labeling by the tower's
    embedding (its byte i is where node i of the parent sits, so
    `str.translate` maps chr(i) there), with copies of the deleted vertex v
    inserted (`_extend_word`); parents are tried in order of code. Only when
    no parent's word extends is the class searched for any word of 2m -
    omega to `longest` letters, in one window of `_search_exact_length`, on
    the tower's canonical masks and automorphism generators, so every "no"
    is as exhaustive as `decide_membership`'s. A count needs no least word,
    so the lengths are not refuted one at a time: the window visits each
    prefix once, and for class L a completed prefix that is not k-local is
    not extended. The lex-leader cut holds in any window, since the words
    of lengths lo..hi are closed under automorphisms.

    The words of one size are kept until the next is swept. A refuted
    parent settles its children only when its "no" is conclusive, so a
    size m < n is swept only when its complete bound maxc * m fits within
    max_len; the n-node classes then answer, and raise, as a per-class loop
    of `decide_membership` would. n and node_budget are checked before k
    and the class: `_graph_classes` checks them before it yields the 0-node
    layer.
    """
    # the members of the size swept last, m - 1, by code, with their words;
    # None when that size was not swept
    words: dict[int, str] | None = None
    for m, layer in enumerate(_graph_classes(n, node_budget=node_budget)):
        if not m:
            maxc, local_k = _copy_rule(class_kind, k)
        complete = maxc * m
        longest = complete if max_len is None else min(complete, max_len)
        if m < n and longest < complete:
            # A "no" here would not be conclusive. The sizes kept are the
            # ones whose G - v "no" decide_membership trusts, so the store
            # answers size n as a per-class loop of it would. The two could
            # differ only on a class with a refuted parent whose shortest
            # length 2n - omega exceeds the cap, where the per-class search
            # raises and the store says no; that needs maxc * (n - 1) <=
            # max_len < 2n - omega. For maxc >= 2 it forces omega <= 1, the
            # edgeless graph, whose parent is a member. For maxc = 1, K_n
            # (parent K_(n-1), a member) exceeds the cap too, so both raise,
            # and the budget message names no class.
            words = None
            continue
        answers = []
        kept = {}
        for cls in layer:
            word = None
            if words is None or all(p in words for p, _ in cls.parents):
                for code, embedding in cls.parents if words else ():
                    v = embedding[-1]
                    word = _extend_word(words[code].translate(embedding), v, cls.masks[v], maxc, local_k, longest)
                    if word is not None:
                        break
                else:
                    found = _any_word(cls.masks, cls.generators, maxc, local_k, longest)
                    if found is None:
                        _check_conclusive(longest, complete)
                    else:
                        word = "".join(map(chr, found))
            if word is not None:
                kept[cls.code] = word
            answers.append((cls, word))
        words = kept
        yield answers


def _any_word(
    adj: Sequence[int], generators: Sequence[Sequence[int]], maxc: int, local_k: int | None, longest: int
) -> list[int] | None:
    """A word of 2m - omega to `longest` letters for the graph on the masks
    adj, as node indices, or None if there is none: one window of
    `_search_exact_length`, cut by the automorphism generators."""
    shortest = 2 * len(adj) - _clique_number(adj)
    if shortest > longest:
        return None
    return _search_exact_length(adj, maxc, local_k, shortest, longest, [], generators)


def _extend_word(
    word: str, v: int, near: int, maxc: int, local_k: int | None, longest: int
) -> str | None:
    """A word for G made by inserting copies of node v into `word`, a word
    for G - v (so its letters are all nodes but v) with at most maxc copies
    of each letter, or None if no insertion fits. Letter chr(i) stands for
    node i, and the bitmask `near` holds v's neighbours in G.

    Inserting v leaves the projection of every other pair as it was, so the
    result is a word for G exactly when v alternates with its neighbours
    and with no other letter. Insertions are tried with 1..maxc copies,
    fewer first, and their gaps (gap g lies before word[g]) as ascending
    sequences in lexicographic order; the first that fits within `longest`
    letters and, for class "L", is k-local is returned. It is not a search
    for words of G: None says only that this word does not extend.

    v alternates with u when at most one copy of u lies before v's first
    copy, exactly one between each two, and at most one after the last.
    The copies of every letter before each gap are packed into one integer,
    a field of `width` bits per node, so each rule is one addition on all
    letters at once: a field never exceeds maxc + 1 <= 2^(width - 1), so
    adding 2^(width - 1) - 1 (or - 2) to it sets its top bit exactly when
    it is at least 1 (or 2), and carries into no other field. The gaps are
    grown one at a time on the rules for the neighbours, and the others are
    checked once all are placed.
    """
    size = len(word)
    top = maxc.bit_length()
    width = top + 1
    nodes = len(set(word)) + 1
    fields = [1 << i * width for i in range(nodes)]  # the low bit of node i's field
    ones = sum(fields) ^ fields[v]  # every letter of the word, which are all nodes but v
    close = sum(fields[i] for i in range(nodes) if near >> i & 1)
    some = ones * ((1 << top) - 1)
    many = ones * ((1 << top) - 2)
    # seen[g]: the copies of each letter before gap g
    seen = [0, *accumulate(map(fields.__getitem__, map(ord, word)))]
    letter = chr(v)

    def insert(gaps: list[int], apart: int, copies: int) -> str | None:
        # apart: the low bits of the letters already kept from alternating
        last = gaps[-1]
        if len(gaps) == copies:
            if apart | (seen[size] - seen[last] + many) >> top & ones != ones ^ close:
                return None
            extended = word
            for g in reversed(gaps):
                extended = extended[:g] + letter + extended[g:]
            if local_k is None or is_k_local(extended, local_k, letter_budget=nodes):
                return extended
            return None
        # the copies of a letter between two gaps only grow with the second
        for g in range(last, size + 1):
            between = seen[g] - seen[last]
            if (between + many) >> top & close:
                break
            missed = ((between ^ ones) + some) >> top & ones
            if not missed & close:
                extended = insert(gaps + [g], apart | missed, copies)
                if extended is not None:
                    return extended
        return None

    for copies in range(1, min(maxc, longest - size) + 1):
        for g in range(size + 1):
            before = (seen[g] + many) >> top & ones
            if before & close:
                break
            extended = insert([g], before, copies)
            if extended is not None:
                return extended
    return None


def _check_conclusive(longest: int, complete: int) -> None:
    """Raise when a search up to `longest` letters found no word, but only
    `complete` letters would make that a "no"."""
    if longest < complete:
        raise BudgetExceededError(f"no word up to length {longest}, but only {complete} is conclusive")


def _lex_leader_masks(
    n: int, transpositions: list[tuple[int, int]], permutations: Sequence[Sequence[int]]
) -> tuple[list[int], list[int]]:
    """(lower, higher): bit j of lower[c] (higher[c]) is set when the j-th
    symmetry maps letter c to a smaller (larger) one. The symmetries are
    the transpositions (u, v) with u < v, then the permutations."""
    lower, higher = [0] * n, [0] * n
    bit = 1
    for u, v in transpositions:
        higher[u] |= bit
        lower[v] |= bit
        bit <<= 1
    for perm in permutations:
        for c, image in enumerate(perm):
            if image < c:
                lower[c] |= bit
            elif image > c:
                higher[c] |= bit
        bit <<= 1
    return lower, higher


def _clique_number(adj: Sequence[int]) -> int:
    """Size of a largest clique; adj[i] is the neighbour bitmask of node i."""
    best = 0
    # the candidates left to each member of the clique being grown, on an
    # explicit stack: a clique may be larger than the recursion limit
    stack = [(1 << len(adj)) - 1]
    while stack:
        size = len(stack) - 1
        candidates = stack[-1]
        if candidates and size + candidates.bit_count() > best:
            low = candidates & -candidates
            stack[-1] = candidates = candidates ^ low
            stack.append(candidates & adj[low.bit_length() - 1])
            best = max(best, size + 1)
        else:
            stack.pop()
    return best


def _search_exact_length(
    adj: Sequence[int],
    maxc: int,
    local_k: int | None,
    lo: int,
    hi: int,
    transpositions: list[tuple[int, int]],
    permutations: Sequence[Sequence[int]],
) -> list[int] | None:
    """Depth-first lexicographic search for one word for the graph on the
    masks adj, spelt in its node indices, whose length lies in the window
    [lo, hi]; see decide_membership for the pruning rules. With lo = hi it
    finds the least word of that length.

    A prefix of at least lo letters that places every letter and doubles
    every non-edge pair is a word for the graph: it is returned if it is
    k-local (class "L"), and never extended if not, since a factor of a
    word is never more local than the word. Renaming letters keeps
    locality, so the index word is checked as it is.

    The automorphisms come as transpositions (u, v), u < v, and as
    permutations; the search turns them into lex-leader masks and counts
    the non-edge pairs itself.

    Letter sets are bitmasks over letter indices. The {c, d} projection
    ends in c exactly when c has occurred and d has not occurred since, so
    since[c], the letters seen after c's last occurrence (all of them while
    c is unused), is the whole pair state of c. doubled[c] holds the letters
    whose projection with c has repeated a letter, scarce the letters with
    at most one copy left. tied holds the symmetries that fix every placed
    letter (see `_lex_leader_masks`); c is skipped when one of them maps it
    lower. Every position but the last keeps a frame on an explicit stack,
    its letter and the state before it, so a word may be longer than the
    recursion limit; the last letter is checked in place.
    """
    n = len(adj)
    if not hi or not n:
        # the empty word, which represents only the graph with no nodes
        return [] if not n and lo <= 0 else None
    lower, higher = _lex_leader_masks(n, transpositions, permutations)
    full = (1 << n) - 1
    used = [0] * n
    frames: list[tuple[int, int, int, list[int], list[int], int, int]] = []
    pending = n * (n - 1) // 2 - sum(a.bit_count() for a in adj) // 2  # the non-edges to double
    zeros, scarce, tied = n, full if maxc < 2 else 0, -1
    since, doubled = [full] * n, [0] * n
    start = 0  # the first letter to try at the current position
    while True:
        slots = hi - len(frames) - 1
        accepting = len(frames) + 1 >= lo
        for c in range(start, n):
            count = used[c]
            if count == maxc:
                continue
            bit = 1 << c
            # pairs whose projection would repeat c
            stale = full & ~since[c] & ~bit
            if stale & adj[c] or lower[c] & tied:
                continue
            new_zeros = zeros - (1 if count == 0 else 0)
            if new_zeros > slots:
                continue
            fresh = stale & ~doubled[c]
            left = maxc - count - 1
            # a spent c can no longer double its pair with a scarce non-neighbour
            if not left and ~adj[c] & ~(doubled[c] | fresh) & scarce & ~bit:
                continue
            if accepting and not new_zeros and pending == fresh.bit_count():
                # c completes a word; the node budget already admitted its letters
                word = [f[0] for f in frames] + [c]
                if local_k is None or is_k_local(word, local_k, letter_budget=n):
                    return word
                continue
            if not slots:
                continue
            new_doubled = doubled
            if fresh:
                new_doubled = doubled.copy()
                new_doubled[c] |= fresh
                for d in range(n):
                    if fresh >> d & 1:
                        new_doubled[d] |= bit
            new_since = [s | bit for s in since]
            new_since[c] = 0
            frames.append((c, zeros, pending, since, doubled, scarce, tied))
            used[c] = count + 1
            zeros, pending, since, doubled = new_zeros, pending - fresh.bit_count(), new_since, new_doubled
            tied &= ~higher[c]
            if left < 2:
                scarce |= bit
            start = 0
            break
        else:
            if not frames:
                return None
            c, zeros, pending, since, doubled, scarce, tied = frames.pop()
            used[c] -= 1
            start = c + 1
