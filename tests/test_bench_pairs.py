"""The verdicts of scripts/bench_pairs.py on hand-made pairs."""

import pytest

from bench_pairs import summarize

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


@pytest.mark.parametrize("change, better, verdict", [
    ([v - 0.1 for v in PARENT], "lower", "gain"),
    # Lower in 8 of 10 pairs: short of nine tenths.
    ([v - 0.1 for v in PARENT[:8]] + [v + 0.01 for v in PARENT[8:]], "lower", "within bound"),
    # Lower in every pair, but by less than the parent's quartile spread.
    ([v - 0.001 for v in PARENT], "lower", "within bound"),
    ([v * 1.3 for v in PARENT], "lower", "worse than bound"),
    ([v + 0.1 for v in PARENT], "higher", "gain"),
    ([v * 0.7 for v in PARENT], "higher", "worse than bound"),
], ids=["gain", "eight_of_ten", "inside_spread", "worse", "higher_gain", "higher_worse"])
def test_verdicts(change, better, verdict):
    row = summarize(PARENT, change, better, 0.25)
    assert row["verdict"] == verdict
    assert row[f"change_{better}_in"].endswith("of 10")


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]
    assert summarize(parent, [1.5, 1.5, 1.5, 1.5], "lower", 0.25)["verdict"] == "unresolved"
    # Every change run below every parent run, by less than the spread: no
    # gain, but no longer unresolved.
    assert summarize(parent, [0.9, 0.95, 0.9, 0.95], "lower", 0.25)["verdict"] == "within bound"
