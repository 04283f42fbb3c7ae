"""Verdicts of the A/B compare command."""

import compare

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_a_change_that_wins_every_pair_by_more_than_the_spread_is_a_gain():
    change = [v * 0.8 for v in PARENT]
    share, verdict = compare.verdict(PARENT, change, "lower", 0.25)
    assert share == 1.0 and verdict == "gain"


def test_a_change_worse_than_the_bound_is_a_regression():
    change = [v * 1.3 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.25) == (0.0, "regression")
    # For a rate, lower is worse.
    assert compare.verdict(PARENT, [v * 0.7 for v in PARENT], "higher", 0.25)[1] == "regression"


def test_noise_within_the_spread_is_the_same():
    change = PARENT[1:] + PARENT[:1]
    assert compare.verdict(PARENT, change, "lower", 0.25)[1] == "same"


def test_a_parent_noisier_than_the_bound_leaves_the_metric_unresolved():
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    change = noisy[::-1]
    assert compare.verdict(noisy, change, "lower", 0.1)[1] == "unresolved"


def test_quartiles_of_one_value():
    assert compare.quartiles([3.0]) == (3.0, 3.0, 3.0)
