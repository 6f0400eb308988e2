"""Marking sequences, block structure, and word locality.

A marking sequence enumerates the alphabet of a word. At stage i every
occurrence of the first i letters is marked; a block is a maximal run of
marked positions. A word is k-local when some marking sequence never
produces more than k blocks, and its locality is the least such k.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate

from .errors import BudgetExceededError
from .words import Word, alphabet

LETTER_BUDGET_DEFAULT = 12

MarkingSequence = tuple[str, ...]


class _AbsorbingLabel:
    """Label of a letter that occurs at least twice inside one block."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "2"

    def __reduce__(self) -> str:
        # pickle and copy hand back the module's singleton, not a twin
        return "TWO"


TWO = _AbsorbingLabel()

# a block label is either TWO or a fixed-width 0/1 tuple, one slot per block
Label = _AbsorbingLabel | tuple[int, ...]


def label_sort_key(label: Label) -> tuple:
    if label is TWO:
        return (1, ())
    return (0, tuple(label))


def _stage_trace() -> type:
    """The StageTrace type, declared on first use.

    Declaring a dataclass imports `dataclasses` and with it `inspect`, the
    largest import a cold `wg locality` or `wg check --k` would make. The
    class is made once and bound as the module attribute, under its own
    name and module, so its repr and pickles read as a module-level class's.
    """
    declared = globals().get("StageTrace")
    if declared is not None:
        return declared
    from dataclasses import dataclass

    class StageTrace:
        """Block structure after one marking stage.

        blocks holds 1-based inclusive position spans. profile maps every
        letter of the alphabet to its per-block occurrence counts; letters not
        yet marked are all-zero. origins lists, per block, the indices of the
        previous stage's blocks it swallowed (empty for a brand-new block).

        The type is declared on first use, by `simulate_marking` or by
        reading the name, so that the verbs that build no trace never load
        `dataclasses`; `typing.get_type_hints` resolves the name from then on.
        """

        stage_index: int
        letter: str
        blocks: tuple[tuple[int, int], ...]
        block_count: int
        marked: frozenset[str]
        profile: dict[str, tuple[int, ...]]
        origins: tuple[tuple[int, ...], ...]

    # set before the decorator, which names the methods after the class
    StageTrace.__qualname__ = "StageTrace"
    # two threads may race here; setdefault keeps the first type for both
    return globals().setdefault("StageTrace", dataclass(frozen=True)(StageTrace))


def __getattr__(name: str):
    if name == "StageTrace":
        return _stage_trace()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_sequence(word: Word, sigma: Sequence[str]) -> MarkingSequence:
    sig = tuple(sigma)
    letters = alphabet(word)
    if len(sig) != len(set(sig)):
        raise ValueError(f"marking sequence repeats a letter: {sig!r}")
    if set(sig) != set(letters):
        raise ValueError(
            f"marking sequence {sig!r} must enumerate the alphabet {sorted(letters)!r}"
        )
    return sig


def simulate_marking(word: Word, sigma: Sequence[str]) -> list[StageTrace]:
    """Run the marking stages of sigma over the word, returning all traces.

    The blocks and origins come from `_marking_stages` in O(n + total
    block count) for n positions. The marked letters are kept grouped by
    profile row, and a row's next value is summed along the origins once
    per group; the profile still lists every letter, so each stage also
    copies O(|A|) entries. The first call declares the StageTrace type,
    unless reading the name did so before (see `_stage_trace`).
    """
    letters = sorted(alphabet(word))
    stages = _marking_stages(word, sigma)
    trace = _stage_trace()
    sig = tuple(c for c, _, _, _ in stages)
    traces: list[StageTrace] = []
    rows: dict[tuple[int, ...], list[str]] = {}  # profile row -> marked letters
    for i, (c, blocks, origins, counts) in enumerate(stages, 1):
        moved: dict[tuple[int, ...], list[str]] = {}
        for row, holders in rows.items():
            summed = tuple([sum([row[j] for j in org]) for org in origins])
            moved.setdefault(summed, []).extend(holders)
        moved.setdefault(counts, []).append(c)
        rows = moved
        profile = dict.fromkeys(letters, (0,) * len(blocks))
        for row, holders in rows.items():
            profile.update(dict.fromkeys(holders, row))
        traces.append(
            trace(
                stage_index=i,
                letter=c,
                blocks=blocks,
                block_count=len(blocks),
                marked=frozenset(sig[:i]),
                profile=profile,
                origins=origins,
            )
        )
    return traces


# letter, blocks, origins, and the letter's number of positions in each block
_Stage = tuple[str, tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]


def _marking_stages(word: Word, sigma: Sequence[str]) -> list[_Stage]:
    """The block structure of every marking stage of sigma, without rescans.

    Per stage: the letter, its blocks as 1-based inclusive spans, the
    origins (per block, the previous stage's blocks it swallowed), and
    the letter's number of positions in each block. A stage's blocks are
    the previous blocks and the letter's own positions, merged in order
    where they touch, so a stage costs O(previous blocks + occurrences)
    and the whole run O(n + total block count).
    """
    sig = _check_sequence(word, sigma)
    positions: dict[str, list[int]] = {}
    for p, x in enumerate(word, 1):
        positions.setdefault(x, []).append(p)
    stages: list[_Stage] = []
    blocks: tuple[tuple[int, int], ...] = ()
    for c in sig:
        pieces = sorted(
            [(lo, hi, j) for j, (lo, hi) in enumerate(blocks)]
            + [(p, p, -1) for p in positions[c]]
        )
        spans: list[list[int]] = []
        origins: list[list[int]] = []
        counts: list[int] = []
        for lo, hi, j in pieces:
            if spans and spans[-1][1] + 1 == lo:
                spans[-1][1] = hi
            else:
                spans.append([lo, hi])
                origins.append([])
                counts.append(0)
            if j < 0:
                counts[-1] += 1
            else:
                origins[-1].append(j)
        blocks = tuple((lo, hi) for lo, hi in spans)
        stages.append((c, blocks, tuple(map(tuple, origins)), tuple(counts)))
    return stages


def max_block_count(word: Word, sigma: Sequence[str]) -> int:
    """Largest block count any stage of sigma reaches on the word."""
    ends = _run_ends(word, _check_sequence(word, sigma))
    # letter i of sigma is marked after the letters whose bits lie below its own
    return max(accumulate(_blocks_added(e, (1 << i) - 1) for i, e in enumerate(ends)), default=0)


def _check_k(k: int) -> None:
    """Every block bound k is a positive count."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")


def is_k_local_with(word: Word, sigma: Sequence[str], k: int) -> bool:
    _check_k(k)
    return max_block_count(word, sigma) <= k


def _run_ends(word: Word, letters: Sequence[str]) -> list[list[tuple[int, int]]]:
    """Per letter, how often each key ends one of its maximal runs: both letters'
    bits (letter i's is 1 << i) where two runs meet, the run's bit alone at a word end."""
    bits = {c: 1 << i for i, c in enumerate(letters)}
    keys: dict[int, int] = {}
    prev = 0
    for b in [*map(bits.__getitem__, word), 0]:
        if b != prev:
            keys[prev | b] = keys.get(prev | b, 0) + 1
            prev = b
    ends: dict[int, list[tuple[int, int]]] = {b: [] for b in bits.values()}
    for pair, k in keys.items():
        low = pair & -pair
        ends[low].append((pair, k))
        if pair != low:
            ends[pair ^ low].append((pair, k))
    return list(ends.values())


def _blocks_added(ends: list[tuple[int, int]], done: int) -> int:
    """Blocks gained by marking a letter after the letter set done, in any
    order: one per run, less one per run end at a marked letter. With two
    ends per run, that is half the free ends less half the others."""
    blocks = 0
    for pair, k in ends:
        blocks += -k if done & pair else k
    return blocks // 2


def _check_letter_budget(count: int, letter_budget: int) -> None:
    if count > letter_budget:
        raise BudgetExceededError(f"alphabet has {count} letters, budget is {letter_budget}")


def _budgeted_letters(word: Word, letter_budget: int) -> list[str]:
    letters = sorted(alphabet(word))
    _check_letter_budget(len(letters), letter_budget)
    return letters


def _search(
    word: Word, letters: list[str], bound: int, floor: int
) -> tuple[int, MarkingSequence] | None:
    """Best marking sequence whose block maximum stays below bound.

    Depth-first search over marking sequences, expanding letters in sorted
    order and pruning a branch as soon as its running block maximum reaches
    the best complete sequence so far (bound at the start). Completions
    arrive with strictly falling maxima, so the last one is the
    lexicographically smallest optimum. The search stops at a completion
    whose maximum is at most floor, since nothing later can beat it.
    Returns None when no sequence stays below bound.

    The block count f(t) after marking a letter set t does not depend on
    the order t was marked in, so the search remembers dead sets, keyed by
    the bitmask of their letters, and never enters one again. A set t dies
    when every way to finish from t reaches best_k: either f(t) itself
    reaches it, or t was entered with a running maximum below best_k and
    came back without a completion below best_k while that maximum still
    stays below it, so every finish from t reaches best_k on its own. Since
    best_k only falls, a dead set holds no completion below any later
    bound, and the search finds the same completions in the same order. A
    set whose prefix maximum alone reached best_k does not die: a later,
    lower prefix may still finish it. Only sets the search visits are
    stored. Between two improvements of best_k a set is entered at most
    once, since an entry that finds none leaves it dead, and a child's
    count costs one look per letter its runs meet; so for m letters and e
    meeting letter pairs (e < n positions) the work is O(2^m * (m + e)) per
    improvement, where the search over orders alone was O(m! * n). The
    path is a stack of frames, not recursion, so it may be n letters deep.
    """
    ends = _run_ends(word, letters)
    order: list[str] = []
    full = (1 << len(letters)) - 1
    dead: set[int] = set()
    best_k = bound
    best_sigma: MarkingSequence | None = None
    # per letter set on the path: blocks, running maximum, bitmask, next letter index
    frames = [[0, 0, 0, 0]]
    while frames:
        frame = frames[-1]
        blocks, high, done, first = frame
        for idx in range(first, len(letters)):
            t = done | 1 << idx
            if t == done or t in dead:
                continue
            nb = blocks + _blocks_added(ends[idx], done)
            nh = high if high >= nb else nb
            if nh >= best_k:
                if nb >= best_k:
                    dead.add(t)
            elif t == full:
                best_k = nh
                best_sigma = (*order, letters[idx])
                if nh <= floor:
                    return best_k, best_sigma
            else:
                frame[3] = idx + 1
                order.append(letters[idx])
                frames.append([nb, nh, t, 0])
                break
        else:
            frames.pop()
            if frames:
                order.pop()
                if high < best_k:
                    dead.add(done)
    return None if best_sigma is None else (best_k, best_sigma)


def locality(
    word: Word, *, letter_budget: int = LETTER_BUDGET_DEFAULT
) -> tuple[int, MarkingSequence]:
    """Exact locality of the word with the lexicographically smallest
    optimal marking sequence."""
    if not len(word):
        raise ValueError("the empty word has no locality")
    letters = _budgeted_letters(word, letter_budget)
    # no non-empty word does better than one block, so a 1-block sequence ends the search
    return _search(word, letters, len(word) + 1, 1)


def is_k_local(word: Word, k: int, *, letter_budget: int = LETTER_BUDGET_DEFAULT) -> bool:
    """Whether some marking sequence keeps the word within k blocks.

    For k = 1 the word is peeled from its two ends in O(n) for n positions
    (see `_is_one_local`); for k >= 2 the marking DFS `_search` decides, in
    O(2^m * (m + e)) for m letters and e meeting letter pairs. Either way a
    word of more than letter_budget letters raises `BudgetExceededError`
    before anything is decided.
    """
    _check_k(k)
    if not len(word):
        return True
    if k == 1:
        return _is_one_local(word, letter_budget)
    return _search(word, _budgeted_letters(word, letter_budget), k + 1, k) is not None


def _is_one_local(word: Word, letter_budget: int) -> bool:
    """Whether the non-empty word is 1-local, peeling letters off its ends.

    Read backwards, a 1-block marking sequence takes away the last-marked
    letter at each step, and the positions of the letters left must stay
    one factor of the word. Every copy of a letter left lies in that
    factor, so a letter can be taken away exactly when its copies are a
    prefix plus a suffix of the factor, and only the letter at its left end
    or the one at its right end can be. Taking one away never spoils the
    rest: two factors meet in a factor, so if some sequence peels the
    factor down to nothing, cutting each of its later factors to the
    factor left without x still peels it, with x skipped. In particular,
    two letters that can both be taken away sit at opposite ends, and
    taking one leaves the other removable. So peeling any removable end
    letter, greedily, decides the question.

    The word is read once into its maximal runs and each letter's count;
    an end letter is removable when its end run, or its two end runs if it
    holds both ends, has all its copies. Two pointers walk the runs inward,
    so the test is O(n) for n positions. The letter count comes from the
    same pass, so the budget is checked without sorting the alphabet,
    before any letter is peeled.
    """
    runs: list[str] = []  # the letter of each maximal run, left to right
    lengths: list[int] = []
    prev = object()
    for c in word:
        if c == prev:
            lengths[-1] += 1
        else:
            runs.append(c)
            lengths.append(1)
            prev = c
    counts: dict[str, int] = {}
    for c, length in zip(runs, lengths):
        counts[c] = counts.get(c, 0) + length
    _check_letter_budget(len(counts), letter_budget)
    i, j = 0, len(runs) - 1
    while i < j:
        x, y = runs[i], runs[j]
        if x == y:
            if counts[x] != lengths[i] + lengths[j]:
                return False
            i += 1
            j -= 1
        elif counts[x] == lengths[i]:
            i += 1
        elif counts[y] == lengths[j]:
            j -= 1
        else:
            return False
    return True


def block_labels(trace: StageTrace, k: int) -> dict[str, Label]:
    """Label every marked letter of the stage by its block occupancy.

    A letter twice inside one block gets TWO; otherwise a width-k 0/1
    tuple with slot j telling whether the letter sits in block j. Unmarked
    letters are left out.
    """
    _check_k(k)
    if trace.block_count > k:
        raise ValueError(
            f"stage {trace.stage_index} has {trace.block_count} blocks, more than k={k}"
        )
    return {c: _occupancy_label(trace.profile[c], k) for c in trace.marked}


def _occupancy_label(counts: Sequence[int], k: int) -> Label:
    """TWO when some block holds the letter twice, else the counts padded to width k."""
    if any(v >= 2 for v in counts):
        return TWO
    return tuple(counts) + (0,) * (k - len(counts))
