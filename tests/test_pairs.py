"""The alternating-pairs verdict, on synthetic samples.

``benchmarks/pairs.py`` judges each end-to-end metric of a base/change
pair run: ``better`` only when the change wins at least nine pairs in
ten (a tie counts for neither side) and its median beats the base's by
more than the base's interquartile range, ``worse`` by the mirror
rule, ``noise`` otherwise.  The module lives outside the installed
package, so it is loaded by path; no child process is started.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs", ROOT / "benchmarks" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]


def test_the_quartiles_and_iqr_are_the_bases(pairs):
    assert pairs.quartiles(BASE) == pytest.approx((10.45, 11.35))
    assert pairs.quartiles([3.0]) == (3.0, 3.0)
    row = pairs.verdict(BASE, [v - 5 for v in BASE], "lower")
    assert row["base_iqr"] == pytest.approx(0.9)
    assert row["base_median"] == pytest.approx(10.9)
    assert row["change_median"] == pytest.approx(5.9)
    assert row["change_quartiles"] == pytest.approx((5.45, 6.35))


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ten_wins_past_the_iqr_is_better_and_its_mirror_worse(pairs,
                                                               better):
    gained = [v - 2 if better == "lower" else v + 2 for v in BASE]
    row = pairs.verdict(BASE, gained, better)
    assert (row["wins"], row["losses"], row["pairs"]) == (10, 0, 10)
    assert row["verdict"] == "better"
    row = pairs.verdict(gained, BASE, better)
    assert (row["wins"], row["losses"]) == (0, 10)
    assert row["verdict"] == "worse"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_nine_of_ten_is_enough_eight_is_not(pairs, better):
    step = -2 if better == "lower" else 2
    nine = [v + step for v in BASE[:9]] + [BASE[9] - step]
    assert pairs.verdict(BASE, nine, better)["verdict"] == "better"
    eight = ([v + step for v in BASE[:8]]
             + [v - step for v in BASE[8:]])
    row = pairs.verdict(BASE, eight, better)
    assert (row["wins"], row["losses"]) == (8, 2)
    assert row["verdict"] == "noise"


def test_a_tie_counts_for_neither_side(pairs):
    # Nine wins and a tie: nine of ten, still better.
    change = [v - 2 for v in BASE[:9]] + [BASE[9]]
    row = pairs.verdict(BASE, change, "lower")
    assert (row["wins"], row["losses"]) == (9, 0)
    assert row["verdict"] == "better"
    # Eight wins and two ties is not nine of ten.
    change = [v - 2 for v in BASE[:8]] + BASE[8:]
    row = pairs.verdict(BASE, change, "lower")
    assert (row["wins"], row["losses"]) == (8, 0)
    assert row["verdict"] == "noise"
    # Every pair a tie: noise, no win, no loss.
    row = pairs.verdict(BASE, list(BASE), "higher")
    assert (row["wins"], row["losses"], row["verdict"]) == (0, 0, "noise")


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_every_win_inside_the_iqr_is_noise(pairs, better):
    # The change wins every pair, but by less than the base's spread.
    nudged = [v - 0.1 if better == "lower" else v + 0.1 for v in BASE]
    row = pairs.verdict(BASE, nudged, better)
    assert row["wins"] == 10
    assert row["verdict"] == "noise"
    assert pairs.verdict(nudged, BASE, better)["verdict"] == "noise"



def test_each_tree_runs_one_unmeasured_child_first(pairs, monkeypatch,
                                                   capsys):
    # The first child of each tree reads 100 s; none of it may reach a
    # pair, and every later child is counted exactly once.
    calls = []

    def run_child(tree, command, argv):
        calls.append(tree)
        first = calls.count(tree) == 1
        return {"metrics": {"wall_s": {"value": 100.0 if first else 1.0}}}

    monkeypatch.setattr(pairs, "run_child", run_child)
    trees = {"base": Path("base"), "change": Path("change")}
    counted = pairs.run_pairs(trees, ["true"], [], 3)
    assert calls[:2] == [trees["base"], trees["change"]]
    assert len(calls) == 2 + 2 * 3
    assert [pair["first"] for pair in counted] == ["base", "change", "base"]
    assert all(pair[side] == {"wall_s": 1.0}
               for pair in counted for side in ("base", "change"))
    assert "pair 3/3" in capsys.readouterr().out
