"""Alternating base/change pairs of the end-to-end benchmark, as one
command.

    python3 benchmarks/pairs.py --base REV --pairs N --workload W \\
        [--seed S] [--seconds T]

``REV`` is checked out into a temporary directory with a local ``git
worktree add --detach`` (no network step); the working tree, with its
uncommitted changes, is the change.  Each pair runs one fresh child of
the benchmark's own command (``BENCHMARK.json``'s ``command``, with
``--workload W --seed S --seconds T --trace 0``) in each tree, and the
side that goes first alternates from pair to pair.  Before the first
pair, one child runs in each tree and is not counted: the first child
of a series reads far slower than the rest (cold caches, a fresh
tree's first imports), which would widen the base's quartiles.  Each
child's last output line is its JSON result; its
``harness.raw_wall_s`` line is recorded beside ``wall_s`` (the figure
before host-speed normalisation, which a forking workload needs read
beside it).

For every end-to-end metric of ``BENCHMARK.json`` (whose ``better``
gives the direction) it prints both medians and quartiles, the base's
interquartile range, the change's wins and a verdict: ``better`` when
the change wins at least nine pairs in ten (a tie counts for neither
side) and its median beats the base's by more than the base IQR,
``worse`` by the mirror rule, ``noise`` otherwise.  Every pair and
verdict goes to ``benchmarks/out/pairs-W-S.json`` (git-ignored), and
the worktree is removed on exit.  A child that exits non-zero or
reports ``failed > 0`` is printed and ends the command with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = ROOT / "BENCHMARK.json"
OUT = ROOT / "benchmarks" / "out"
#: The harness line recorded beside the end-to-end metrics.
RAW_WALL = "harness.raw_wall_s"


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(base: list[float], change: list[float], better: str) -> dict:
    """One metric's pairs judged: ``base[i]`` and ``change[i]`` are the
    two sides of pair ``i``; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (new - old) > 0 for old, new in zip(base, change))
    losses = sum(sign * (new - old) < 0 for old, new in zip(base, change))
    n = len(base)
    base_q, change_q = quartiles(base), quartiles(change)
    iqr = base_q[1] - base_q[0]
    gain = sign * (median(change) - median(base))
    if 10 * wins >= 9 * n and gain > iqr:
        call = "better"
    elif 10 * losses >= 9 * n and -gain > iqr:
        call = "worse"
    else:
        call = "noise"
    return {"base_median": median(base), "base_quartiles": base_q,
            "change_median": median(change), "change_quartiles": change_q,
            "base_iqr": iqr, "wins": wins, "losses": losses, "pairs": n,
            "verdict": call}


def run_child(tree: Path, command: list[str], argv: list[str]) -> dict:
    """One benchmark run in ``tree``; its JSON result, or ``SystemExit``
    after printing a child that failed."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}        # each tree imports its own src
    done = subprocess.run(command + argv, cwd=tree, env=env,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None or result.get("failed", 0) > 0:
        print(f"child failed in {tree} (exit {done.returncode}):",
              " ".join(command + argv))
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
        raise SystemExit(1)
    for line in lines:
        if line.split()[:1] == [RAW_WALL]:
            result["metrics"][RAW_WALL] = {
                "value": float(line.split()[1].replace(",", ""))}
    return result


def run_pairs(trees: dict[str, Path], command: list[str], argv: list[str],
              count: int) -> list[dict]:
    """``count`` alternating pairs of children in ``trees`` (``base``,
    ``change``) after one unmeasured child in each: per pair, which
    side went first and each side's metric values."""
    for side in ("base", "change"):
        run_child(trees[side], command, argv)
    pairs = []
    for number in range(count):
        order = ("base", "change") if number % 2 == 0 else ("change",
                                                            "base")
        runs = {side: run_child(trees[side], command, argv)
                for side in order}
        pairs.append({"first": order[0], **{
            side: {name: value["value"] for name, value
                   in runs[side]["metrics"].items()}
            for side in ("base", "change")}})
        print(f"pair {number + 1}/{count} ({order[0]} first): "
              + "  ".join(f"{name} {pairs[-1]['base'][name]:.4g} -> "
                          f"{pairs[-1]['change'][name]:.4g}"
                          for name in pairs[-1]["base"]), flush=True)
    return pairs


def _spread(row: dict, side: str) -> str:
    q1, q3 = row[side + "_quartiles"]
    return f"{row[side + '_median']:.4g} [{q1:.4g}, {q3:.4g}]"


def report(verdicts: dict, metrics: list[dict]) -> None:
    print(f"{'metric':<14} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'base IQR':>10}   wins  verdict")
    for metric in metrics:
        row = verdicts[metric["name"]]
        print(f"{metric['name']:<14} {_spread(row, 'base'):>34} "
              f"{_spread(row, 'change'):>34} {row['base_iqr']:>10.4g} "
              f"{row['wins']:>4}/{row['pairs']:<2} {row['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the base revision")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2304)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    seconds = args.seconds or contract["run_seconds"]
    metrics = contract["end_to_end"]
    child_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(seconds), "--trace", "0"]
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", args.base + "^{commit}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()
    worktree = Path(tempfile.mkdtemp(prefix="pairs-base-"))
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(worktree),
                        commit], cwd=ROOT, check=True, capture_output=True)
        pairs = run_pairs({"base": worktree, "change": ROOT},
                          contract["command"], child_argv, args.pairs)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(worktree)], cwd=ROOT, capture_output=True)
        shutil.rmtree(worktree, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
    verdicts = {metric["name"]: verdict(
        [pair["base"][metric["name"]] for pair in pairs],
        [pair["change"][metric["name"]] for pair in pairs],
        metric["better"]) for metric in metrics}
    report(verdicts, metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"pairs-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "base": args.base, "base_commit": commit, "workload": args.workload,
        "seed": args.seed, "seconds": seconds, "pairs": pairs,
        "verdicts": verdicts}, indent=1) + "\n", encoding="utf-8")
    print(f"pairs file: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
