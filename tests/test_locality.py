from __future__ import annotations

import itertools
import json
import random
import sys

import pytest

from wordgraphs import (
    TWO,
    block_labels,
    is_k_local,
    is_k_local_with,
    label_sort_key,
    locality,
    max_block_count,
    simulate_marking,
)
from wordgraphs.cli import main
from wordgraphs.errors import BudgetExceededError
from wordgraphs.locality import _search


def oracle_locality(word):
    """Try every marking sequence; return (best k, lexicographically
    smallest witness among the best)."""
    letters = sorted(set(word))
    if not letters:
        return 0, ()
    best = None
    for sigma in itertools.permutations(letters):
        m = max(t.block_count for t in simulate_marking(word, sigma))
        key = (m, sigma)
        if best is None or key < best:
            best = key
    return best


def spans(trace):
    return [t.blocks for t in trace]


def counts(trace):
    return [t.block_count for t in trace]


def test_simulate_marking_reappear():
    trace = simulate_marking("reappear", ("e", "a", "r", "p"))
    assert counts(trace) == [2, 2, 2, 1]
    assert spans(trace) == [
        ((2, 2), (6, 6)),
        ((2, 3), (6, 7)),
        ((1, 3), (6, 8)),
        ((1, 8),),
    ]


def test_simulate_marking_pepper_two_sequences():
    assert counts(simulate_marking("pepper", ("r", "p", "e"))) == [1, 3, 1]
    assert max_block_count("pepper", ("p", "e", "r")) == 2


def test_simulate_marking_profile_and_origins():
    trace = simulate_marking("banana", ("n", "a", "b"))
    # stage 1: n at positions 3 and 5 -> two singleton blocks
    assert trace[0].blocks == ((3, 3), (5, 5))
    assert trace[0].profile["n"] == (1, 1)
    assert trace[0].profile["a"] == (0, 0)
    # stage 2: a joins everything from position 2 on into one block
    assert trace[1].blocks == ((2, 6),)
    assert trace[1].origins == ((0, 1),)
    assert trace[1].profile == {"a": (3,), "b": (0,), "n": (2,)}
    # stage 3: whole word
    assert trace[2].blocks == ((1, 6),)
    assert trace[2].profile == {"a": (3,), "b": (1,), "n": (2,)}


def test_simulate_marking_profiles_match_per_letter_counts():
    rng = random.Random(59)
    for _ in range(200):
        tokens = rng.random() < 0.3
        pool = ("x1", "y", "zz", "w", "v") if tokens else "abcde"
        letters = [rng.choice(pool) for _ in range(rng.randrange(1, 20))]
        word = tuple(letters) if tokens else "".join(letters)
        sigma = list(set(letters))
        rng.shuffle(sigma)
        for t in simulate_marking(word, sigma):
            # oracle: count each letter separately over every block's span
            expected = {
                x: tuple(sum(1 for p in range(lo - 1, hi) if word[p] == x) for lo, hi in t.blocks)
                for x in sorted(set(letters))
            }
            assert list(t.profile.items()) == list(expected.items()), (word, sigma, t.stage_index)


def rescan_marking(word, sigma):
    """Oracle: mark, find the blocks and count the profile from the whole word at every stage."""
    n = len(word)
    letters = sorted(set(word))
    marked = [False] * n
    out = []
    prev = ()
    for c in sigma:
        for p, x in enumerate(word):
            if x == c:
                marked[p] = True
        blocks = []
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
        out.append((tuple(blocks), origins, [(x, tuple(row)) for x, row in counts.items()]))
        prev = tuple(blocks)
    return out


def test_simulate_marking_matches_whole_word_rescan():
    rng = random.Random(83)
    for _ in range(300):
        tokens = rng.random() < 0.4
        pool = ["x1", "y", "zz", "w", "v", "u7", "t"] if tokens else list("abcdefg")
        pool = pool[: rng.randint(1, len(pool))]
        letters = [rng.choice(pool) for _ in range(rng.randrange(1, 40))]
        word = tuple(letters) if tokens else "".join(letters)
        sigma = sorted(set(letters))
        rng.shuffle(sigma)
        got = [
            (t.blocks, t.origins, list(t.profile.items()))
            for t in simulate_marking(word, sigma)
        ]
        assert got == rescan_marking(word, sigma), (word, sigma)


def test_simulate_marking_rejects_non_permutations():
    with pytest.raises(ValueError):
        simulate_marking("ab", ("a",))
    with pytest.raises(ValueError):
        simulate_marking("ab", ("a", "a"))
    with pytest.raises(ValueError):
        simulate_marking("ab", ("a", "b", "c"))


def test_stage_trace_is_the_public_frozen_dataclass():
    # declared on first use, the type is still the module-level frozen
    # dataclass it was: same fields, repr, equality, pickles and hints
    import copy
    import dataclasses
    import pickle
    import typing
    from collections.abc import Sequence

    import wordgraphs
    from wordgraphs.locality import StageTrace

    trace = simulate_marking("banana", ("n", "a", "b"))[0]
    assert type(trace) is StageTrace is wordgraphs.StageTrace
    assert (StageTrace.__module__, StageTrace.__qualname__) == ("wordgraphs.locality", "StageTrace")
    assert StageTrace.__init__.__qualname__ == "StageTrace.__init__"
    assert dataclasses.is_dataclass(StageTrace)
    assert StageTrace.__dataclass_params__.frozen
    assert [f.name for f in dataclasses.fields(StageTrace)] == [
        "stage_index", "letter", "blocks", "block_count", "marked", "profile", "origins",
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.letter = "a"
    assert repr(trace) == (
        "StageTrace(stage_index=1, letter='n', blocks=((3, 3), (5, 5)), block_count=2, "
        "marked=frozenset({'n'}), profile={'a': (0, 0), 'b': (0, 0), 'n': (1, 1)}, "
        "origins=((), ()))"
    )
    again = simulate_marking("banana", ("n", "a", "b"))[0]
    assert trace == again and trace is not again
    assert trace != simulate_marking("banana", ("a", "n", "b"))[0]
    # eq and frozen make the generated field hash, which the dict profile refuses
    assert StageTrace.__hash__.__qualname__ == "StageTrace.__hash__"
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(trace)
    for twin in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert type(twin) is StageTrace and twin == trace and twin is not trace
    assert b"wordgraphs.locality" in pickle.dumps(trace) and b"StageTrace" in pickle.dumps(trace)
    assert typing.get_type_hints(simulate_marking) == {
        "word": Sequence[str], "sigma": Sequence[str], "return": list[StageTrace],
    }


def test_locality_pepper():
    assert locality("pepper") == (2, ("e", "p", "r"))


def test_locality_banana_witness_is_unique():
    assert locality("banana") == (2, ("n", "a", "b"))
    others = [
        sigma
        for sigma in itertools.permutations("abn")
        if max_block_count("banana", sigma) <= 2
    ]
    assert others == [("n", "a", "b")]


def test_locality_edge_cases():
    with pytest.raises(ValueError):
        locality("")
    assert is_k_local("", 1)
    assert locality("a") == (1, ("a",))
    assert locality("aaaa") == (1, ("a",))
    assert locality("ab") == (1, ("a", "b"))


def test_locality_matches_exhaustive_oracle():
    rng = random.Random(41)
    for _ in range(400):
        n = rng.randrange(1, 11)
        word = "".join(rng.choice("abcde") for _ in range(n))
        assert locality(word) == oracle_locality(word), word


def test_locality_matches_oracle_on_all_short_words():
    for n in range(1, 7):
        for combo in itertools.product("abc", repeat=n):
            word = "".join(combo)
            assert locality(word) == oracle_locality(word), word


def test_is_k_local_agrees_with_locality():
    rng = random.Random(43)
    for _ in range(200):
        word = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 10)))
        k_min, _ = locality(word)
        assert not is_k_local(word, max(1, k_min - 1)) or k_min <= max(1, k_min - 1)
        assert is_k_local(word, k_min)
        assert is_k_local(word, k_min + 1)


def test_max_block_count_matches_stage_traces():
    rng = random.Random(47)
    words = []
    for _ in range(300):
        n = rng.randrange(2, 14)
        tokens = rng.random() < 0.3
        pool = ("x1", "y", "zz", "w") if tokens else "abcd"
        letters = [rng.choice(pool) for _ in range(n)]
        # the first and last positions share a letter: one run meets both ends
        letters[-1] = letters[0]
        words.append(tuple(letters) if tokens else "".join(letters))
    for _ in range(60):
        # long first and last runs, of one letter or of two
        middle = [rng.choice("abcde") for _ in range(rng.randrange(0, 12))]
        first, last = rng.choice("abcde"), rng.choice("abcde")
        words.append(first * rng.randint(2, 30) + "".join(middle) + last * rng.randint(2, 30))
    words.extend(wide_words())
    for word in words:
        sigma = sorted(set(word))
        rng.shuffle(sigma)
        expected = max(t.block_count for t in simulate_marking(word, sigma))
        assert max_block_count(word, sigma) == expected, (word, sigma)


def test_is_k_local_matches_every_permutation():
    rng = random.Random(53)
    for _ in range(150):
        word = "".join(rng.choice("abcde") for _ in range(rng.randrange(1, 11)))
        best = min(
            max(t.block_count for t in simulate_marking(word, sigma))
            for sigma in itertools.permutations(sorted(set(word)))
        )
        for k in range(1, best + 2):
            assert is_k_local(word, k) == (best <= k), (word, k)


def test_is_k_local_with_requires_positive_k():
    with pytest.raises(ValueError):
        is_k_local_with("ab", ("a", "b"), 0)


def one_local_by_dfs(word):
    """Oracle: the marking DFS, asked for a sequence that stays within one block."""
    return _search(word, sorted(set(word)), 2, 1) is not None


def test_one_locality_peel_matches_the_dfs_on_every_short_word():
    # every word up to length 8 over 3 letters and up to length 6 over 4,
    # as strings and as tokens (which sort in another order)
    tokens = {"a": "x1", "b": "yy", "c": "z", "d": "w10"}
    answers = []
    for size, top in ((3, 8), (4, 6)):
        for n in range(1, top + 1):
            for combo in itertools.product("abcd"[:size], repeat=n):
                word = "".join(combo)
                expected = one_local_by_dfs(word)
                assert (locality(word)[0] == 1) == expected, word
                assert is_k_local(word, 1) == expected, word
                assert is_k_local(tuple(map(tokens.get, combo)), 1) == expected, word
                answers.append(expected)
    assert len(answers) == 9840 + 5460 and 0 < sum(answers) < len(answers)


def one_swap_mutants(rng, word, count):
    """Words that differ from word by swapping two positions: random ones,
    and neighbours across a run boundary, where a peel is most likely to
    break by one letter."""
    boundaries = [p for p in range(1, len(word)) if word[p] != word[p - 1]]
    for i in range(count):
        if i % 2 and boundaries:
            q = rng.choice(boundaries)
            p = q - 1
        else:
            p, q = rng.sample(range(len(word)), 2)
        mutant = list(word)
        mutant[p], mutant[q] = mutant[q], mutant[p]
        yield mutant


def test_one_locality_peel_on_planted_words_and_their_mutants():
    # planted 1-local words: each letter in turn, innermost first, puts its
    # copies at either end (c^a w c^b); 12 letters, thousands of positions
    rng = random.Random(89)
    tokens = ["x1", "yy", "z", "w10", "w9", "v", "u_u", "t", "s3", "r", "q", "p0"]
    answers = []
    for i in range(8):
        letters = tokens if i % 2 else list("abcdefghijkl")
        word = planted_local_word(rng, letters, rng.randint(1000, 5000), 1)
        assert len(set(word)) == 12
        assert is_k_local(word, 1) and one_local_by_dfs(word)
        for mutant in one_swap_mutants(rng, word, 12):
            expected = one_local_by_dfs(mutant)
            assert is_k_local(mutant, 1) == expected, (i, mutant)
            answers.append(expected)
    assert True in answers and False in answers


def test_one_locality_never_enters_the_marking_dfs(monkeypatch, capsys):
    search = sys.modules["wordgraphs.locality"]
    from wordgraphs.representability import _speed_layers

    def refused(*args):
        raise AssertionError("the marking DFS ran")

    monkeypatch.setattr(search, "_search", refused)
    assert not is_k_local(random_long_word(), 1)
    assert is_k_local("ccabbaddc", 1) and not is_k_local("abab", 1)
    # the letter budget still raises first
    with pytest.raises(BudgetExceededError, match="alphabet has 13 letters, budget is 12"):
        is_k_local("abcdefghijklm", 1)
    assert main(["check", "ccabbaddc", "--k", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["k_local"] is True
    # the L,1 sweep's leaf checks, in its extensions and in its refutations
    # of 2K2, C4 and P4, peel as well
    *_, last = _speed_layers("L", 1, 5, node_budget=5, max_len=None)
    assert sum(cls.labeled for cls, word in last if word is not None) == 332
    with pytest.raises(AssertionError, match="the marking DFS ran"):
        is_k_local("abab", 2)


def test_letter_budget_enforced():
    word = "abcdefghijklm"  # 13 distinct letters
    with pytest.raises(BudgetExceededError):
        locality(word)
    with pytest.raises(BudgetExceededError):
        is_k_local(word, 1)
    assert locality(word, letter_budget=13) == (1, tuple("abcdefghijklm"))


def test_block_labels_banana():
    trace = simulate_marking("banana", ("n", "a", "b"))
    assert block_labels(trace[0], 2) == {"n": (1, 1)}
    assert block_labels(trace[1], 2) == {"a": TWO, "n": TWO}
    assert block_labels(trace[2], 2) == {"a": TWO, "b": (1, 0), "n": TWO}


def test_block_labels_single_occurrences():
    trace = simulate_marking("ab", ("a", "b"))
    assert block_labels(trace[0], 1) == {"a": (1,)}
    assert block_labels(trace[1], 1) == {"a": (1,), "b": (1,)}
    # wider k pads with zeros
    assert block_labels(trace[0], 3) == {"a": (1, 0, 0)}


def test_block_labels_rejects_too_many_blocks():
    trace = simulate_marking("aba", ("a", "b"))
    with pytest.raises(ValueError):
        block_labels(trace[0], 1)


def test_label_sort_key_orders_tuples_before_two():
    labels = [TWO, (1, 0), (0, 1), (1, 1)]
    assert sorted(labels, key=label_sort_key) == [(0, 1), (1, 0), (1, 1), TWO]


def subset_dp_locality(word):
    """Oracle: locality and its lexicographically smallest witness over the
    letter subsets, with no search over marking orders.

    blocks[s] is the block count once the letter set s is marked, in any
    order: the marked positions minus the adjacent position pairs with both
    letters in s. need[s] is the least block maximum a marking must still
    reach after s, so the locality is need[0]; walking forwards with the
    smallest letter that stays within it gives the witness.
    """
    letters = sorted(set(word))
    m = len(letters)
    index = {c: i for i, c in enumerate(letters)}
    occ = [0] * m
    adjacent = [[0] * m for _ in range(m)]
    for p, x in enumerate(word):
        i = index[x]
        occ[i] += 1
        if p:
            j = index[word[p - 1]]
            adjacent[i][j] += 1
            if i != j:
                adjacent[j][i] += 1
    full = (1 << m) - 1
    blocks = [0] * (full + 1)
    for s in range(1, full + 1):
        c = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        inside = sum(adjacent[c][d] for d in range(m) if rest >> d & 1)
        blocks[s] = blocks[rest] + occ[c] - adjacent[c][c] - inside
    need = [0] * (full + 1)
    for s in range(full - 1, -1, -1):
        need[s] = min(
            max(blocks[s | 1 << c], need[s | 1 << c]) for c in range(m) if not s >> c & 1
        )
    witness = []
    s = 0
    while s != full:
        c = next(
            c
            for c in range(m)
            if not s >> c & 1 and max(blocks[s | 1 << c], need[s | 1 << c]) <= need[0]
        )
        witness.append(letters[c])
        s |= 1 << c
    return need[0], tuple(witness)


def test_subset_dp_oracle_matches_exhaustive_oracle():
    rng = random.Random(67)
    for _ in range(100):
        word = "".join(rng.choice("abcde") for _ in range(rng.randrange(1, 11)))
        assert subset_dp_locality(word) == oracle_locality(word), word


def planted_local_word(rng, letters, length, k):
    """A word with at most k blocks at every stage of some marking order.

    Each occurrence, taken in that order, goes to either end of an existing
    run or, while fewer than k runs exist, starts a new one between them; the
    marked part of every run is then one stretch of it.
    """
    sigma = rng.sample(letters, len(letters))
    pool = sigma + [rng.choice(letters) for _ in range(length - len(letters))]
    pool.sort(key=sigma.index)
    runs = []
    for c in pool:
        if not runs or (len(runs) < k and rng.random() < 0.2):
            runs.insert(rng.randrange(len(runs) + 1), [c])
        elif rng.random() < 0.5:
            rng.choice(runs).append(c)
        else:
            rng.choice(runs).insert(0, c)
    return [x for run in runs for x in run]


def wide_words():
    """Seeded random and planted words over 8-12 letters, 50-1000 positions."""
    rng = random.Random(71)
    tokens = ["x1", "yy", "z", "w10", "w9", "v", "u_u", "t", "s3", "r", "q", "p0"]
    for i in range(24):
        size = rng.randint(8, 12)
        letters = rng.sample(tokens, size) if i % 3 == 2 else list("abcdefghijkl"[:size])
        length = int(50 * 20 ** rng.random())
        if i % 2:
            word = planted_local_word(rng, letters, length, rng.randint(1, 4))
        else:
            word = letters + [rng.choice(letters) for _ in range(length - size)]
            rng.shuffle(word)
        yield tuple(word) if i % 3 == 2 else "".join(word)


def test_locality_matches_subset_dp_on_wide_alphabets():
    for word in wide_words():
        k, witness = subset_dp_locality(word)
        assert locality(word) == (k, witness), word
        assert is_k_local(word, k), word
        assert k == 1 or not is_k_local(word, k - 1), word


def random_long_word():
    rng = random.Random(12)
    letters = list("abcdefghijkl")
    word = rng.sample(letters, 12) + [rng.choice(letters) for _ in range(1988)]
    rng.shuffle(word)
    return "".join(word)


def test_locality_of_long_word_expands_each_letter_set_about_once(monkeypatch):
    # 12 letters and 2000 positions: the search over marking orders took
    # seconds here; over letter sets it evaluates fewer children than the
    # 12 * 2^11 edges of the subset lattice
    word = random_long_word()
    k, witness = subset_dp_locality(word)
    search = sys.modules["wordgraphs.locality"]
    blocks_added = search._blocks_added
    calls = []

    def counted(ends, done):
        calls.append(None)
        return blocks_added(ends, done)

    monkeypatch.setattr(search, "_blocks_added", counted)
    assert locality(word) == (k, witness)
    assert not is_k_local(word, k - 1)
    assert len(calls) <= 12 * 2**11


def test_cli_locality_and_check_on_long_word(capsys):
    word = random_long_word()
    k, witness = subset_dp_locality(word)
    assert main(["locality", word, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "word": word,
        "locality": k,
        "witness": list(witness),
    }
    assert main(["check", word, "--k", str(k - 1), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"word": word, "k": k - 1, "k_local": False}


def test_cli_locality_of_forty_distinct_tokens(capsys):
    # one occurrence per token: locality 1, found without a table over the
    # 2^40 letter sets
    tokens = [f"w{i:02}" for i in range(40)]
    word = " ".join(reversed(tokens))
    assert main(["locality", word, "--tokens", "--budget-letters", "40", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["locality"], out["witness"]) == (1, tokens)


def test_cli_locality_and_check_of_two_thousand_distinct_tokens(capsys):
    # one letter per step of the search: deeper than the recursion limit
    tokens = [f"w{i:04}" for i in range(2000)]
    word = " ".join(reversed(tokens))
    flags = ["--tokens", "--budget-letters", "2000", "--json"]
    assert main(["locality", word, *flags]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["locality"], out["witness"]) == (1, tokens)
    assert main(["check", word, "--k", "1", *flags]) == 0
    assert json.loads(capsys.readouterr().out)["k_local"] is True
