"""The claim rules of tools/bench_pairs.py."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5


def test_claim_arg():
    assert bench_pairs.claim_arg("paper256.us_per_iter:15") == (
        "paper256.us_per_iter", 15.0)
    for bad in ("paper256.us_per_iter", ":15", "m:0", "m:-3"):
        with pytest.raises((argparse.ArgumentTypeError, ValueError)):
            bench_pairs.claim_arg(bad)


def test_claim_met_when_every_rule_holds():
    change = [p - 20.0 for p in PARENT]
    v = bench_pairs.claim_verdict("m", 15, "lower", PARENT, change)
    assert v["met"] and all(v["rules"].values())
    assert v["change_better_pairs"] == "10/10"
    assert v["gap"] == 20.0 and v["parent_iqr"] == 4.5


@pytest.mark.parametrize("change, pct, rule", [
    # 19% better in the median, but 15% is claimed at 25
    ([p - 20.0 for p in PARENT], 25, "gain_at_least_pct"),
    # two pairs lost: 8/10
    ([p - 20.0 for p in PARENT[:8]] + [200.0, 200.0], 15,
     "won_at_least_9_in_10"),
    # every pair won, but by less than the parent's own spread
    ([p - 1.0 for p in PARENT], 0.5, "gap_above_parent_iqr"),
    # nine pairs are too few
    ([p - 20.0 for p in PARENT[:9]], 15, "pairs_at_least_10"),
])
def test_claim_not_met_names_the_rule(change, pct, rule):
    parent = PARENT[:len(change)]
    v = bench_pairs.claim_verdict("m", pct, "lower", parent, change)
    assert not v["met"]
    assert [k for k, ok in v["rules"].items() if not ok] == [rule]


def test_ties_count_for_neither_and_direction_is_respected():
    v = bench_pairs.claim_verdict("m", 1, "lower", PARENT, list(PARENT))
    assert v["change_better_pairs"] == "0/10" and not v["met"]
    higher = [p + 20.0 for p in PARENT]
    assert bench_pairs.claim_verdict("m", 15, "higher", PARENT, higher)["met"]
