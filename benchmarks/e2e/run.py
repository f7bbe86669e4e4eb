"""The end-to-end benchmark's one command.

Three ways to call it, from the repo root:

``python3 benchmarks/e2e/run.py --seed 2304 [--traced] [--smoke]``
    all four workloads, each run in its own fresh child process, one
    at a time; prints every metric with its unit (median of three
    children, min, max, n) and writes the result file.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload in this process (what the children and the
    benchmark driver execute); the last line of output is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}``.

``python3 benchmarks/e2e/run.py --compare A.json B.json``
    judges two result files against the bounds; exits non-zero on a
    regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
CONTRACT = ROOT / "BENCHMARK.json"
#: Untraced child runs per workload in all-workloads mode; every
#: end-to-end figure it prints is the median of these.
RUNS = 3


def fmt(value) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4f}"


def print_budget(budget: dict) -> None:
    """The traced pass's self time per layer, largest first."""
    wall = sum(budget.values())
    print("  per-layer budget (self time, traced pass):")
    for layer, seconds in sorted(budget.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<18} {seconds:9.3f} s  "
              f"{100 * seconds / wall:5.1f} %")


# ----------------------------------------------------------------------
# One run of one workload (child / driver mode)

def run_one(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same interpreter state on every run: set iteration order is
        # part of what the pipeline's wall-clock depends on.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, str(ROOT / "src"))
    import core
    from metrics import BY_NAME, END_TO_END, PER_LAYER

    trace = bool(args.trace)
    workdir = OUT / f"tmp-{os.getpid()}"
    result = core.run_workload(args.workload, args.seed, args.seconds, trace,
                               "smoke" if args.smoke else "full", workdir)

    print(f"{result['workload']}  seed {result['seed']}  "
          f"size {result['size']}  events {result['events']:,}  "
          f"traced {int(trace)}  untraced pass walls "
          + " ".join(f"{wall:.3f}" for wall in result["passes"]))
    shown = dict(result["metrics"])
    shown.update({k: v for k, v in result["extra"].items() if k in BY_NAME})
    for name, value in shown.items():
        print(f"  {name:<34} {fmt(value):>16} {BY_NAME[name].unit}")
    if trace:
        print_budget(result["budget"])
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}.json").write_text(
            json.dumps(result["spans"]) + "\n", encoding="utf-8")
    for note in result["notes"]:
        print(f"  FAILED: {note}", file=sys.stderr)
    del result["spans"]
    if args.result_file:
        Path(args.result_file).write_text(json.dumps(result) + "\n",
                                          encoding="utf-8")

    # The driver's line: every declared metric of this kind, by name;
    # a per-layer metric a workload does not have reads 0.
    declared = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": result["metrics"].get(m.name, 0),
                             "unit": m.unit} for m in declared},
    }))
    return 0


# ----------------------------------------------------------------------
# All workloads, each in fresh children (the analyst's one command)

def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def child(workload: str, args, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{os.getpid()}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--result-file", str(result_file)]
    if args.smoke:
        command.append("--smoke")
    try:
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                       env=dict(os.environ, PYTHONHASHSEED="0"))
        return json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        result_file.unlink(missing_ok=True)


def run_all(args) -> int:
    from metrics import BY_NAME, WORKLOADS

    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    report = {"environment": environment(), "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "workloads": {}}
    # Round-robin, so that the runs behind one median are minutes apart:
    # the host's speed drifts over tens of seconds, and three runs made
    # back to back would agree with each other and with nothing else.
    untraced = {workload: [] for workload in WORKLOADS.values()}
    for number in range(RUNS):
        for workload, runs in untraced.items():
            print(f"run {number + 1}/{RUNS}  {workload}", file=sys.stderr)
            runs.append(child(workload, args, 0))
    ok = True
    for workload, runs in untraced.items():
        if args.traced:
            print(f"traced run  {workload}", file=sys.stderr)
        traced = child(workload, args, 1) if args.traced else None
        entry = {"size": runs[0]["size"], "events": runs[0]["events"],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "notes": sorted({n for r in runs for n in r["notes"]}),
                 "metrics": {}, "layers": {}, "budget": {}}
        print(f"\n{workload}  size {entry['size']}  "
              f"events {entry['events']:,}")
        for name in list(runs[0]["metrics"]) + [
                k for k in runs[0]["extra"] if k in BY_NAME]:
            values = [r["metrics"].get(name, r["extra"].get(name))
                      for r in runs]
            entry["metrics"][name] = {
                "unit": BY_NAME[name].unit, "median": median(values),
                "min": min(values), "max": max(values), "values": values}
            print(f"  {name:<34} {fmt(median(values)):>16} "
                  f"{BY_NAME[name].unit:<9} min {fmt(min(values))}  "
                  f"max {fmt(max(values))}  n {len(values)}")
        if traced is not None:
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["notes"] = sorted(set(entry["notes"]) | set(traced["notes"]))
            entry["budget"] = traced["budget"]
            print("  -- traced pass --")
            for name, value in traced["metrics"].items():
                if name in entry["metrics"] and name != "failed_ratio":
                    continue
                entry["layers"][name] = {"unit": BY_NAME[name].unit,
                                         "value": value,
                                         "exact": BY_NAME[name].exact}
                print(f"  {name:<34} {fmt(value):>16} {BY_NAME[name].unit}")
            print_budget(traced["budget"])
        for note in entry["notes"]:
            print(f"  FAILED: {note}")
        ok = ok and entry["failed"] == 0
        report["workloads"][workload] = entry
    out = Path(args.out) if args.out else OUT / f"results-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Compare two result files

def verdict(metric, a: dict, b: dict) -> tuple[str, float, float]:
    """``(status, worsening, spread)`` of B against A for one metric."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"] \
        if a["median"] else float(b["median"] != a["median"])
    spread = max((side["max"] - side["min"]) / side["median"]
                 if side["median"] else 0.0 for side in (a, b))
    if metric.exact:
        return ("ok" if a["values"] == b["values"] else "regression",
                worse, spread)
    if spread > metric.bound:
        # Too noisy to call, unless every run of B reads better than
        # every run of A.
        if max(sign * value for value in b["values"]) < min(
                sign * value for value in a["values"]):
            return "better", worse, spread
        return "unresolved", worse, spread
    return ("regression" if worse > metric.bound else "ok"), worse, spread


def compare(path_a: str, path_b: str) -> int:
    from metrics import END_TO_END, PHASE

    a_all = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b_all = json.loads(Path(path_b).read_text(encoding="utf-8"))
    failures = 0
    print(f"{'workload':<18} {'metric':<22} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  status")
    for workload, a_entry in a_all["workloads"].items():
        b_entry = b_all["workloads"].get(workload)
        if b_entry is None:
            print(f"{workload:<18} missing from B")
            failures += 1
            continue
        for metric in END_TO_END + PHASE:
            a = a_entry["metrics"].get(metric.name)
            b = b_entry["metrics"].get(metric.name)
            if a is None:
                continue
            if b is None:
                # A gate that is no longer reported is not a gate passed.
                failures += 1
                print(f"{workload:<18} {metric.name:<22} missing from B")
                continue
            status, worse, spread = verdict(metric, a, b)
            failures += status == "regression"
            print(f"{workload:<18} {metric.name:<22} "
                  f"{fmt(a['median']):>12} {fmt(b['median']):>12} "
                  f"{100 * worse:8.1f}% {100 * metric.bound:5.0f}% "
                  f"{100 * spread:6.1f}%  {status}")
        for name, a in a_entry.get("layers", {}).items():
            b = b_entry.get("layers", {}).get(name)
            if not a["exact"] or not b_entry.get("layers"):
                continue                # B was run without --traced
            if b is None:
                failures += 1
                print(f"{workload:<18} {name:<22} missing from B")
            elif a["value"] != b["value"]:
                failures += 1
                print(f"{workload:<18} {name:<22} {fmt(a['value']):>12} "
                      f"{fmt(b['value']):>12}  exact metric differs")
    print("regressions:", failures)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2304)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add a traced child each")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the harness's own tests")
    parser.add_argument("--out", help="result file (all-workloads mode)")
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        if args.seconds is None:
            parser.error("--workload needs --seconds")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
