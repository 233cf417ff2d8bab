import random
import sys

from conftest import lcs_oracle, lcs_row_dp
from hypothesis import example, given
from hypothesis import strategies as st

import sbcr.similarity as similarity_module
from sbcr.search import position_masks
from sbcr.similarity import Granularity, char_similarities, lcs_length, similarity


def test_lcs_hand_checked():
    assert lcs_length(["A", "B", "C"], ["A", "C"]) == 2
    assert lcs_length("abcde", "abcde") == 5
    assert lcs_length("abc", "xyz") == 0
    assert lcs_length([], ["x"]) == 0
    assert lcs_length([], []) == 0


def test_lcs_matches_recursive_oracle():
    rng = random.Random(42)
    sys.setrecursionlimit(10000)
    for _ in range(1000):
        a = [rng.choice("abcd") for _ in range(rng.randint(0, 12))]
        b = [rng.choice("abcd") for _ in range(rng.randint(0, 12))]
        assert lcs_length(a, b) == lcs_oracle(a, b), (a, b)


def test_lcs_bounded_by_shorter_sequence():
    rng = random.Random(7)
    for _ in range(500):
        a = [rng.choice("ab") for _ in range(rng.randint(0, 9))]
        b = [rng.choice("ab") for _ in range(rng.randint(0, 9))]
        assert lcs_length(a, b) <= min(len(a), len(b))


def test_similarity_line_level_example():
    assert abs(similarity(["x", "y", "z"], ["x", "z"]) - 0.8) < 1e-12


def test_similarity_identical_and_empty():
    assert similarity(["a", "b"], ["a", "b"]) == 1.0
    assert similarity([], ["a"]) == 0.0
    assert similarity([], []) == 1.0
    assert similarity([], [], Granularity.CHAR) == 1.0


def test_similarity_char_level_joins_with_lf():
    # "ab\ncd" vs "ab\nce": LCS = 4 ("ab\nc"), lengths 5 and 5
    assert abs(similarity(["ab", "cd"], ["ab", "ce"], Granularity.CHAR) - 0.8) < 1e-12


def test_similarity_symmetry_and_bounds_fuzz():
    rng = random.Random(3)
    for _ in range(10_000):
        a = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
        b = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
        g = rng.choice([Granularity.LINE, Granularity.CHAR])
        s_ab = similarity(a, b, g)
        s_ba = similarity(b, a, g)
        assert s_ab == s_ba
        assert 0.0 <= s_ab <= 1.0
        if g is Granularity.LINE:
            assert (s_ab == 1.0) == (a == b)
        else:
            assert (s_ab == 1.0) == ("\n".join(a) == "\n".join(b))


def test_trim_trailing_flag():
    assert similarity(["x  "], ["x"]) < 1.0
    assert similarity(["x  "], ["x"], trim_trailing=True) == 1.0


def _symbol_lists(max_size: int):
    """Pairs of line lists over the first 1-4 of a few lines, so duplicates abound."""
    lines = ["a;", "b;", "}", ""]
    return st.integers(1, len(lines)).flatmap(
        lambda k: st.tuples(
            st.lists(st.sampled_from(lines[:k]), max_size=max_size),
            st.lists(st.sampled_from(lines[:k]), max_size=max_size),
        )
    )


@given(_symbol_lists(max_size=150))
def test_lcs_equals_row_dp_on_duplicate_heavy_lines(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_row_dp(a, b)


@given(st.text(alphabet="ab\n \u00e9\u00fc\u20ac\U0001f600", max_size=120), st.text(max_size=60))
def test_lcs_equals_row_dp_on_strings(a, b):
    assert lcs_length(a, b) == lcs_row_dp(a, b)
    assert lcs_length(a, a + b) == len(a)


_RUNS = st.lists(st.sampled_from(["", "a", "b", "ab", "\u00e9"]), max_size=10)


@given(_RUNS, _RUNS, _RUNS, _RUNS, st.sampled_from(["two middles", "identical", "one-sided", "one empty"]))
@example([], [], [], [], "two middles")
@example(["a"], [], [], ["b"], "identical")
def test_lcs_equals_row_dp_with_a_shared_prefix_and_suffix(prefix, middle1, middle2, suffix, shape):
    """``lcs_length`` counts the shared ends whole and runs its bit-parallel pass on what is left between them."""
    if shape == "identical":
        middle2 = middle1
    elif shape == "one-sided":
        middle2 = []
    a = prefix + middle1 + suffix
    b = [] if shape == "one empty" else prefix + middle2 + suffix
    for x, y in ((a, b), (b, a), (tuple(a), b), ("".join(a), "".join(b)), ("".join(b), "".join(a))):
        assert lcs_length(x, y) == lcs_row_dp(x, y)
    for granularity, x, y in ((Granularity.LINE, a, b), (Granularity.CHAR, "\n".join(a), "\n".join(b))):
        total = len(x) + len(y)
        assert similarity(a, b, granularity) == (1.0 if total == 0 else 2 * lcs_row_dp(x, y) / total)


def test_lcs_builds_masks_only_between_the_shared_ends(monkeypatch):
    built = []
    monkeypatch.setattr(similarity_module, "position_masks", lambda b: built.append(list(b)) or position_masks(b))
    assert lcs_length(("a", "x", "b"), ["a", "y", "y", "b"]) == 2  # a candidate's tuple against a truth's list
    assert lcs_length("ab-cd", "ab+cd") == 4
    # the shared ends hold all of one side, so nothing is left to build masks for
    assert lcs_length("abcd", "abxcd") == 4
    assert lcs_length(["a", "x", "b"], ("a", "b")) == 2
    assert built == [["x"], ["+"]]


@given(st.one_of(st.text(max_size=30), st.lists(st.sampled_from(["x", "y"]), max_size=30)))
def test_lcs_with_an_empty_side_is_zero(seq):
    empty = seq[:0]
    assert lcs_length(seq, empty) == lcs_length(empty, seq) == 0


def _char_oracle(candidates, truth):
    return [similarity(c, truth, Granularity.CHAR) for c in candidates]


def test_char_similarities_edge_cases():
    truth = ["ab", "", "c\u00e9"]
    candidates = [["ab"], [], ["ab", ""], ["ab"], ["ab", "", "c\u00e9"], [""], ["ab", "", "c\u00e9", "x"]]
    assert char_similarities(candidates, truth) == _char_oracle(candidates, truth)
    assert char_similarities(candidates, []) == _char_oracle(candidates, [])
    assert char_similarities([[], [""], ["", ""]], []) == [1.0, 1.0, 0.0]
    assert char_similarities([], truth) == []


# Lines including the empty line, one holding a LF and non-ASCII text. Each candidate is a prefix of one of a
# few stems plus a short tail, so candidates repeat and share leading lines.
_LINES = st.sampled_from(["", "\n", "a", "ab", "b}", "x\ny", "\u00e9\u20ac", "\U0001f600a"])


@given(
    st.lists(st.lists(_LINES, max_size=6), min_size=1, max_size=4).flatmap(
        lambda stems: st.lists(
            st.tuples(st.sampled_from(stems), st.integers(0, 6), st.lists(_LINES, max_size=3)).map(
                lambda t: t[0][: t[1]] + t[2]
            ),
            max_size=12,
        )
    ),
    st.lists(_LINES, max_size=6),
)
def test_char_similarities_equal_similarity(candidates, truth):
    assert char_similarities(candidates, truth) == _char_oracle(candidates, truth)
