"""Words and the graphs they represent.

A word is any sequence of letters: a plain string (one letter per
character) or a tuple of string tokens when letters need longer names.
Two distinct letters are joined by an edge exactly when they alternate,
i.e. their two-letter projection never repeats a letter.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

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


def _alternation(word: Word) -> tuple[list[str], int, list[int]]:
    """(letters, width, near): the sorted alphabet and, per letter, the
    letters it alternates with, as a mask over `width`-bit fields.

    {c, d} alternates exactly when each gap between consecutive copies of
    c holds one copy of d and at most one d lies before c's first copy and
    at most one after its last; a letter that occurs once alternates with
    the other such letters and with each letter that has one copy before
    it and one after it. One pass over the word gives every count these
    rules need: the running letter counts are packed into one integer, a
    field of `width` bits per letter, so the counts of a gap, a prefix or a
    suffix are the difference of two prefixes. Adding 2^(width-1) - 1 to
    every field sets its top bit when the count is at least one, adding
    2^(width-1) - 2 when it is at least two; the XOR of the two sums flags
    the counts of exactly one. The masks are over those top bits, letter j
    at bit (j + 1) * width - 1. A position, and then a letter, costs O(1)
    operations on integers of |A| * width bits, where a scan per letter
    pair cost O(|A|^2 n).
    """
    letters = sorted(alphabet(word))
    index = {c: i for i, c in enumerate(letters)}
    width = len(word).bit_length() + 1  # every count stays below 2^(width-1)
    low = int("0" + ("0" * (width - 1) + "1") * len(letters), 2)
    high = low << (width - 1)
    one_or_more, two_or_more = high - low, high - 2 * low
    # per letter: flags of two or more over the counts before its first
    # copy; the letters once in every gap so far, None while it has no gap;
    # and the prefix just after its last copy
    before: list[int | None] = [None] * len(letters)
    inside: list[int | None] = [None] * len(letters)
    after: list[int] = [0] * len(letters)
    prefix = 0
    for x in word:
        i = index[x]
        if before[i] is None:
            before[i] = prefix + two_or_more
        else:
            gap = prefix - after[i]
            once = (gap + one_or_more) ^ (gap + two_or_more)
            inside[i] = once & (high if inside[i] is None else inside[i])
        prefix += 1 << (i * width)
        after[i] = prefix
    singles = sum(1 << ((i + 1) * width - 1) for i, m in enumerate(inside) if m is None)
    suffix_flags = prefix + two_or_more  # less after[i]: the flags after i's last copy
    near = []
    for i, m in enumerate(inside):
        if m is None:  # one copy: the letters with one copy on each side, and the single letters
            head, tail = before[i] - two_or_more, prefix - after[i]
            m = (head + one_or_more) ^ before[i]
            m &= (tail + one_or_more) ^ (tail + two_or_more)
            near.append((m & high | singles) ^ 1 << ((i + 1) * width - 1))
        else:  # at most one copy before its first and after its last
            near.append(m & ~(before[i] | suffix_flags - after[i]))
    return letters, width, near


def graph_of_word(word: Word) -> Graph:
    """The graph on the word's alphabet whose edges are the alternating
    pairs, read off the masks of `_alternation`."""
    from .graphs import Graph  # imported here so that `wg locality` never loads graphs

    letters, width, near = _alternation(word)
    edges = []
    for i, c in enumerate(letters):
        rest = near[i] >> (i + 1) * width  # the later letters, letter i + j at bit j * width - 1
        while rest:
            top = rest & -rest
            rest ^= top
            edges.append((c, letters[i + top.bit_length() // width]))
    return Graph(letters, edges)


def _letter_masks(word: Word) -> tuple[list[str], list[int]]:
    """The word's graph as masks: the sorted alphabet, and per letter the
    bitmask of the letters it alternates with, bit j for the j-th letter.
    The same edges as `graph_of_word`, with no Graph built."""
    letters, width, near = _alternation(word)
    masks = []
    for m in near:
        if m.bit_count() > 8:
            # the top binary digit is a flag, and so is every width-th one
            # after it, down to letter 0's
            masks.append(int(bin(m)[2::width], 2))
            continue
        mask = 0  # a few flags cost less one by one than |A| * width digits
        while m:
            top = m & -m
            m ^= top
            mask |= 1 << (top.bit_length() // width - 1)
        masks.append(mask)
    return letters, masks
