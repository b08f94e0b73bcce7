"""Child seeds: one path, one seed; two different paths, two seeds."""

from __future__ import annotations

from visualauth.rng import child_seed, fork

SEED = 2026


def test_same_path_same_seed():
    assert child_seed(SEED, "matrix", "P1", 3) == child_seed(SEED, "matrix", "P1", 3)
    assert fork(SEED, "session").random() == fork(SEED, "session").random()


def test_a_separator_in_a_label_is_no_second_label():
    assert child_seed(SEED, "a/b") != child_seed(SEED, "a", "b")


def test_an_int_label_is_not_its_text():
    assert child_seed(SEED, 5) != child_seed(SEED, "5")


def test_an_empty_label_is_not_a_trailing_separator():
    assert child_seed(SEED, "a", "") != child_seed(SEED, "a/")


def test_a_label_cannot_spell_the_next_one():
    # the length of each label's text bounds it: a label holding what a
    # second label's type and text would hash as is still one label
    assert child_seed(SEED, "a", "b") != child_seed(SEED, "astr:b")
    assert child_seed(SEED, "a", "b") != child_seed(SEED, "astr:1:b")
