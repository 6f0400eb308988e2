"""Words and the graphs they represent.

A word is any sequence of letters: a plain string (one letter per
character) or a tuple of string tokens when letters need longer names.
Two distinct letters are joined by an edge exactly when they alternate,
i.e. their two-letter projection never repeats a letter.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import combinations

TYPE_CHECKING = False  # type checkers read True; `typing` stays off the `wg locality` path
if TYPE_CHECKING:
    from .graphs import Graph

Word = Sequence[str]


def alphabet(word: Word) -> frozenset[str]:
    return frozenset(word)


def occurrences(word: Word) -> Counter:
    return Counter(word)


def make_word(letters: Iterable[str]) -> str | tuple[str, ...]:
    """Pack letters into a string when single characters, else a tuple."""
    seq = tuple(letters)
    if all(len(x) == 1 for x in seq):
        return "".join(seq)
    return seq


def project(word: Word, keep: Iterable[str]) -> str | tuple[str, ...]:
    """Delete every letter outside `keep`, preserving order and input kind."""
    members = frozenset(keep)
    kept = [x for x in word if x in members]
    if isinstance(word, str):
        return "".join(kept)
    return tuple(kept)


def _alternation_scan(word: Word, a: str, b: str) -> bool:
    # no two consecutive equal letters in the {a, b} projection
    last = None
    for x in word:
        if x == a or x == b:
            if x == last:
                return False
            last = x
    return True


def alternates(word: Word, a: str, b: str) -> bool:
    """Whether the projection onto {a, b} strictly switches between them."""
    if a == b:
        raise ValueError(f"letters must be distinct, got {a!r} twice")
    letters = alphabet(word)
    for x in (a, b):
        if x not in letters:
            raise ValueError(f"letter {x!r} does not occur in the word")
    return _alternation_scan(word, a, b)


def _once_in_every_gap(word: Word, index: dict[str, int]) -> tuple[int, list[int | None]]:
    """Per letter, the letters that occur exactly once in every gap between
    two consecutive occurrences of it, or None if it occurs once.

    The running letter counts are packed into one integer, a field of
    `width` bits per letter, so a gap's counts are the difference of two
    prefixes. Adding 2^(width-1) - 1 to every field sets its top bit when
    the count is at least one, adding 2^(width-1) - 2 when it is at least
    two; the XOR of the two sums flags the counts of exactly one. The sets
    are masks over those top bits, letter i at bit (i + 1) * width - 1, and
    come back with the width. A position costs O(1) integer operations on
    |A| * width bits.
    """
    width = len(word).bit_length() + 1  # every count stays below 2^(width-1)
    low = int("0" + ("0" * (width - 1) + "1") * len(index), 2)
    high = low << (width - 1)
    one_or_more, two_or_more = high - low, high - 2 * low
    inside: list[int | None] = [None] * len(index)
    prefix = 0
    after: dict[str, int] = {}  # letter -> prefix just after its last occurrence
    for x in word:
        i = index[x]
        if x in after:
            gap = prefix - after[x]
            once = (gap + one_or_more) ^ (gap + two_or_more)
            inside[i] = once & (high if inside[i] is None else inside[i])
        prefix += 1 << (i * width)
        after[x] = prefix
    return width, inside


def graph_of_word(word: Word) -> Graph:
    """The graph on the word's alphabet whose edges are the alternating pairs.

    {c, d} alternates exactly when each gap between consecutive copies of
    c holds one copy of d and each gap of d one copy of c; a letter that
    occurs once has no gap and constrains nothing. One pass over the word
    collects those letter sets in O(n) operations on integers of
    |A| * log n bits for n positions, and each letter then tests only the
    letters in its set, one bit test each, where a scan per letter pair
    cost O(|A|^2 n).
    """
    from .graphs import Graph  # imported here so that `wg locality` never loads graphs

    letters = sorted(alphabet(word))
    width, inside = _once_in_every_gap(word, {c: i for i, c in enumerate(letters)})
    edges = list(combinations([c for c, m in zip(letters, inside) if m is None], 2))
    for i, rest in enumerate(inside):
        while rest:
            top = rest & -rest
            rest ^= top
            j = top.bit_length() // width - 1
            other = inside[j]
            if other is None or (j > i and other >> ((i + 1) * width - 1) & 1):
                edges.append((letters[i], letters[j]))
    return Graph(letters, edges)
