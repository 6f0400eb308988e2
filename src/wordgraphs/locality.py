"""Marking sequences, block structure, and word locality.

A marking sequence enumerates the alphabet of a word. At stage i every
occurrence of the first i letters is marked; a block is a maximal run of
marked positions. A word is k-local when some marking sequence never
produces more than k blocks, and its locality is the least such k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceededError
from .words import Word, alphabet

LETTER_BUDGET_DEFAULT = 12

MarkingSequence = tuple[str, ...]


class _AbsorbingLabel:
    """Label of a letter that occurs at least twice inside one block."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "2"


TWO = _AbsorbingLabel()

# a block label is either TWO or a fixed-width 0/1 tuple, one slot per block
Label = _AbsorbingLabel | tuple[int, ...]


def label_sort_key(label: Label) -> tuple:
    if label is TWO:
        return (1, ())
    return (0, tuple(label))


@dataclass(frozen=True)
class StageTrace:
    """Block structure after one marking stage.

    blocks holds 1-based inclusive position spans. profile maps every
    letter of the alphabet to its per-block occurrence counts; letters not
    yet marked are all-zero. origins lists, per block, the indices of the
    previous stage's blocks it swallowed (empty for a brand-new block).
    """

    stage_index: int
    letter: str
    blocks: tuple[tuple[int, int], ...]
    block_count: int
    marked: frozenset[str]
    profile: dict[str, tuple[int, ...]]
    origins: tuple[tuple[int, ...], ...]


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
    """Run the marking stages of sigma over the word, returning all traces."""
    sig = _check_sequence(word, sigma)
    n = len(word)
    letters = sorted(alphabet(word))
    marked = [False] * n
    traces: list[StageTrace] = []
    prev: tuple[tuple[int, int], ...] = ()
    for i, c in enumerate(sig, 1):
        for p, x in enumerate(word):
            if x == c:
                marked[p] = True
        blocks: list[tuple[int, int]] = []
        p = 0
        while p < n:
            if marked[p]:
                q = p
                while q + 1 < n and marked[q + 1]:
                    q += 1
                blocks.append((p + 1, q + 1))
                p = q + 1
            else:
                p += 1
        origins = tuple(
            tuple(j for j, (s, e) in enumerate(prev) if lo <= s and e <= hi)
            for lo, hi in blocks
        )
        counts = {x: [0] * len(blocks) for x in letters}
        for j, (lo, hi) in enumerate(blocks):
            for p in range(lo - 1, hi):
                counts[word[p]][j] += 1
        profile = {x: tuple(row) for x, row in counts.items()}
        traces.append(
            StageTrace(
                stage_index=i,
                letter=c,
                blocks=tuple(blocks),
                block_count=len(blocks),
                marked=frozenset(sig[:i]),
                profile=profile,
                origins=origins,
            )
        )
        prev = tuple(blocks)
    return traces


def max_block_count(word: Word, sigma: Sequence[str]) -> int:
    """Largest block count any stage of sigma reaches on the word."""
    sig = _check_sequence(word, sigma)
    positions = _positions_by_letter(word)
    marked = bytearray(len(word) + 2)
    blocks = high = 0
    for c in sig:
        blocks += _mark(marked, positions[c])
        if blocks > high:
            high = blocks
    return high


def is_k_local_with(word: Word, sigma: Sequence[str], k: int) -> bool:
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return max_block_count(word, sigma) <= k


def _positions_by_letter(word: Word) -> dict[str, tuple[int, ...]]:
    """1-based positions of every letter, to index a marking array with sentinels."""
    positions: dict[str, list[int]] = {}
    for p, x in enumerate(word, 1):
        positions.setdefault(x, []).append(p)
    return {c: tuple(ps) for c, ps in positions.items()}


def _mark(marked: bytearray, ps: tuple[int, ...]) -> int:
    """Mark positions ps and return the change in the block count.

    marked has len(word) + 2 slots; slots 0 and len(word) + 1 stay
    unmarked, so every position has two neighbours to look at.
    """
    delta = 0
    for p in ps:
        marked[p] = 1
        delta += 1 - marked[p - 1] - marked[p + 1]
    return delta


def _budgeted_letters(word: Word, letter_budget: int) -> list[str]:
    letters = sorted(alphabet(word))
    if len(letters) > letter_budget:
        raise BudgetExceededError(
            f"alphabet has {len(letters)} letters, budget is {letter_budget}"
        )
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
    """
    positions = _positions_by_letter(word)
    marked = bytearray(len(word) + 2)
    used = [False] * len(letters)
    order: list[str] = []
    best_k = bound
    best_sigma: MarkingSequence | None = None

    def dfs(blocks: int, high: int) -> bool:
        nonlocal best_k, best_sigma
        if len(order) == len(letters):
            best_k = high
            best_sigma = tuple(order)
            return high <= floor
        for idx, c in enumerate(letters):
            if used[idx]:
                continue
            ps = positions[c]
            nb = blocks + _mark(marked, ps)
            nh = high if high >= nb else nb
            if nh < best_k:
                used[idx] = True
                order.append(c)
                if dfs(nb, nh):
                    return True
                order.pop()
                used[idx] = False
            for p in ps:
                marked[p] = 0
        return False

    dfs(0, 0)
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
    """Whether some marking sequence keeps the word within k blocks."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not len(word):
        return True
    letters = _budgeted_letters(word, letter_budget)
    return _search(word, letters, k + 1, k) is not None


def block_labels(trace: StageTrace, k: int) -> dict[str, Label]:
    """Label every marked letter of the stage by its block occupancy.

    A letter twice inside one block gets TWO; otherwise a width-k 0/1
    tuple with slot j telling whether the letter sits in block j. Unmarked
    letters are left out.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if trace.block_count > k:
        raise ValueError(
            f"stage {trace.stage_index} has {trace.block_count} blocks, more than k={k}"
        )
    out: dict[str, Label] = {}
    for c in trace.marked:
        prof = trace.profile[c]
        if any(v >= 2 for v in prof):
            out[c] = TWO
        else:
            out[c] = tuple(prof) + (0,) * (k - len(prof))
    return out
