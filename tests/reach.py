"""Which functions of ``src/repro`` a user path runs.

A function exists only while something a user runs reaches it: a
``dio`` command, a README example, a paper benchmark, an e2e workload.
This tool runs each entry of :data:`ENTRIES` in its own Python process
under ``sys.setprofile`` / ``threading.setprofile``, collects every
code object the process and the workers it forks entered, and matches each ``def`` in
``src/repro`` to one (a decorated function's code object starts at its
first decorator's line).  A ``def`` no entry entered must be listed in
``tests/data/reach_allowlist.txt`` with a reason that starts with one
of :data:`TAGS`; an allowlist line that names a reached or missing
function is stale.  Either is an error (exit 1).  See docs/TESTING.md,
"Code a user reaches".

    python tests/reach.py      # every entry, then the audit

Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "tests" / "data" / "reach_allowlist.txt"

#: The only reasons a def no user path enters may stay: an error path
#: no well-formed run takes, a check on input from outside (a query,
#: a path, a config value, a caller's write), an abstract or protocol
#: declaration, a callback a registry scrape reads, or code that runs
#: only on a failing DST seed.  Every allowlist reason starts with one.
TAGS = ("error path:", "outside input:", "declaration:", "scrape:",
        "failing seed:")

#: The paper benchmarks append to these; an audit run leaves them as
#: they were.
TRAJECTORIES = ("BENCH_diagnosis.json", "BENCH_resilience.json",
                "BENCH_sharding.json", "BENCH_storage.json",
                "BENCH_uring.json")


def _dio(*argv: str, status: int = 0) -> tuple[str, list[str], dict, int]:
    return ("dio " + " ".join(argv), ["-m", "repro.cli", *argv], {}, status)


def _example(name: str) -> tuple[str, list[str], dict, int]:
    return (f"examples/{name}", [f"examples/{name}"], {}, 0)


def _e2e(workload: str) -> tuple[str, list[str], dict, int]:
    return (f"e2e {workload}",
            ["benchmarks/e2e/run.py", "--workload", workload, "--smoke",
             "--seconds", "1", "--trace", "1"],
            # run.py re-executes itself unless the hash seed is pinned,
            # which would shed the profiler.
            {"PYTHONHASHSEED": "0"}, 0)


#: ``(label, argv after the interpreter, extra environment, exit
#: status or ``None`` for one not judged)``, run in order from the
#: repository root; ``{tmp}`` is a temporary directory
#: holding a copy of the format-v1 segment store (``{tmp}/v1``) and a
#: custom dashboard spec (``{tmp}/spec.json``).  The exports come
#: first: later entries read them.
ENTRIES: list[tuple[str, list[str], dict, int | None]] = [
    _dio("fluentbit", "--version", "1.4.0", "--export", "{tmp}/flb-1.4.jsonl"),
    _dio("fluentbit", "--version", "2.0.5", "--export", "{tmp}/flb-2.0.jsonl"),
    _dio("rocksdb", "--duration", "0.4", "--export", "{tmp}/rocksdb.jsonl"),
    _dio("sessions", "{tmp}/flb-1.4.jsonl", "{tmp}/rocksdb.jsonl"),
    _dio("segments", "{tmp}/v1"),
    _dio("segments", "{tmp}/v1", "--verify"),
    _dio("segments", "{tmp}/v1", "--json"),
    _dio("segments", "{tmp}/v1", "--compact"),
    _dio("analyze", "{tmp}/rocksdb.jsonl"),
    _dio("analyze", "{tmp}/flb-1.4.jsonl", "--json", status=1),
    _dio("compare", "{tmp}/flb-1.4.jsonl", "{tmp}/flb-2.0.jsonl"),
    _dio("compare", "{tmp}/flb-1.4.jsonl", "{tmp}/flb-2.0.jsonl", "--json"),
    _dio("diagnose", "--scenario", "fluentbit", "--version", "1.4.0"),
    _dio("diagnose", "--scenario", "fluentbit", "--version", "2.0.5",
         "--json"),
    _dio("diagnose", "--scenario", "rocksdb", "--duration", "2", "--json"),
    _dio("diagnose", "{tmp}/rocksdb.jsonl"),
    _dio("diagnose", "{tmp}/v1", "--json"),
    _dio("diagnose", "--follow", "{tmp}/flb-1.4.jsonl"),
    _dio("diagnose", "{tmp}/flb-1.4.jsonl", "{tmp}/flb-2.0.jsonl",
         "--session", "fluentbit-1.4.0"),
    _dio("replay", "{tmp}/flb-1.4.jsonl"),
    _dio("replay", "{tmp}/flb-1.4.jsonl", "--timed"),
    *(_dio("dashboard", "{tmp}/rocksdb.jsonl", "--name", name)
      for name in ("overview", "file-access", "thread-activity",
                   "diagnosis")),
    _dio("dashboard", "{tmp}/v1", "--spec", "{tmp}/spec.json",
         "--agg-stats"),
    _dio("overhead", "--ops", "400"),
    _dio("uring"),
    _dio("uring", "--json"),
    _dio("resilience", "--duration", "0.3", "--json", "{tmp}/res.json"),
    _dio("resilience", "--duration", "0.3", "--no-baseline"),
    _dio("capabilities"),
    _dio("metrics"),
    _dio("metrics", "--format", "json", "--scenario", "rocksdb"),
    _dio("metrics", "--scenario", "resilience", "--duration", "0.2"),
    _dio("health"),
    _dio("health", "--format", "json", "--scenario", "rocksdb"),
    _dio("health", "--scenario", "resilience", "--duration", "0.2",
         "--version", "2.0.5"),
    _dio("fleet"),
    _dio("fleet", "--json", "--quota", "40", "--tenants", "2", status=1),
    _dio("dst", "run", "--seeds", "200", "--json", "{tmp}/dst.json"),
    _dio("dst", "run", "--seeds", "3", "--start", "7", "--shrink",
         "--save-failures", "{tmp}/failures", "--verbose"),
    _dio("dst", "repro", "3"),
    _dio("dst", "repro", "7", "--shard-count", "3", "--ring-mode",
         "ring-aware"),
    _dio("dst", "repro", "7", "--shard-count", "1", "--ring-mode",
         "classic"),
    _dio("dst", "repro", "7", "--shard-count", "2"),
    _dio("dst", "repro", "3", "--shrink", "--save", "{tmp}/shrunk.json"),
    _dio("dst", "repro", "--scenario", "tests/corpus/kitchen-sink.json"),
    _dio("dst", "corpus"),
    ("python -m repro.telemetry.reference",
     ["-m", "repro.telemetry.reference"], {}, 0),
    *(_example(name) for name in (
        "quickstart.py", "fluentbit_data_loss.py", "rocksdb_contention.py",
        "tracer_comparison.py", "custom_analysis.py",
        "session_comparison.py", "sqlite_journal.py",
        "dio_as_a_service.py", "reproduce_paper.py")),
    *(_e2e(workload) for workload in (
        "rocksdb_e2e", "ingest_replay", "dashboard_serve",
        "live_tail_sharded")),
    # At full size: a 100,000-event save, past the row count at which
    # save_session encodes its segments in forked workers.
    ("e2e ingest_replay (full size)",
     ["benchmarks/e2e/run.py", "--workload", "ingest_replay", "--seconds",
      "1", "--trace", "0"], {"PYTHONHASHSEED": "0"}, 0),
    # Not judged: the trajectory gates time the code, and under the
    # profiler it runs several times slower.  The benchmarks' own CI
    # jobs judge them.
    ("benchmarks/test_*.py",
     ["-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
      "--ignore=benchmarks/e2e"],
     {"DIO_BENCH_EVENTS": "20000"}, None),
]

#: The spec file ``dio dashboard --spec`` reads.
SPEC = {"name": "custom", "title": "custom",
        "panels": [{"type": "syscall_histogram", "title": "syscalls"},
                   {"type": "process_table", "title": "processes"}]}


# -- the child: run one entry under the profiler -----------------------

def child(out: str, argv: list[str]) -> None:
    """Run ``argv`` as ``python argv...`` would, record what it enters."""
    # Keyed by id, holding the code object so the id is never reused.
    entered: dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            entered[id(frame.f_code)] = frame.f_code

    def dump(path: str = out) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        src = str(SRC)
        reached = sorted({
            (os.path.relpath(code.co_filename, SRC), code.co_firstlineno)
            for code in entered.values()
            if os.path.realpath(code.co_filename).startswith(src)})
        Path(path).write_text(json.dumps(reached), encoding="utf-8")

    # A forked worker (a segment encoder) runs under the profiler it
    # inherited and leaves through os._exit, never unwinding to the dump
    # below: it writes its own file on the way out.
    real_exit = os._exit

    def exit_after_dump(status: int) -> None:
        dump(f"{out}.{os.getpid()}")
        real_exit(status)

    os.register_at_fork(
        after_in_child=lambda: setattr(os, "_exit", exit_after_dump))
    sys.path.insert(0, str(ROOT / "src"))
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if argv[0] == "-m":
            sys.path.insert(0, str(ROOT))
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, str(Path(argv[0]).resolve().parent))
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        dump()


# -- the parent: the defs, the entries, the audit -----------------------

def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(path, first line) -> (qualified name, lines)`` of every def.

    A def nested in another def is folded into it: it is reached only
    if its parent is, and deleting the parent deletes it.
    """
    found: dict[tuple[str, int], tuple[str, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix: str) -> None:
            for item in ast.iter_child_nodes(node):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([item.lineno] + [d.lineno for d in
                                                 item.decorator_list])
                    found[(rel, first)] = (prefix + item.name,
                                           item.end_lineno - first + 1)
                elif isinstance(item, ast.ClassDef):
                    walk(item, prefix + item.name + ".")
                else:
                    walk(item, prefix)

        walk(tree, "")
    return found


def read_allowlist() -> dict[str, str]:
    """``path::qualname -> reason`` from the allowlist file."""
    entries: dict[str, str] = {}
    for number, line in enumerate(
            ALLOWLIST.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition("  # ")
        reason = reason.strip()
        if not reason.startswith(TAGS):
            raise SystemExit(
                f"{ALLOWLIST.name}:{number}: {name} needs a reason that "
                f"starts with one of {', '.join(TAGS)} (write "
                f"`name  # tag: reason`)")
        entries[name.strip()] = reason
    return entries


def run_entries() -> tuple[set, list[str]]:
    """Run every entry; the union of what they reached, and the labels
    of the entries that failed."""
    reached: set[tuple[str, int]] = set()
    failed: list[str] = []
    saved = {name: (ROOT / name).read_bytes() for name in TRAJECTORIES
             if (ROOT / name).exists()}
    with tempfile.TemporaryDirectory(prefix="dio-reach-") as tmp:
        shutil.copytree(ROOT / "tests/corpus/segments-v1/store",
                        Path(tmp) / "v1")
        (Path(tmp) / "spec.json").write_text(json.dumps(SPEC))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            for index, (label, argv, extra, expect) in enumerate(ENTRIES):
                out = Path(tmp) / f"reached-{index}.json"
                argv = [arg.replace("{tmp}", tmp) for arg in argv]
                started = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, __file__, "--child", str(out), "--",
                     *argv], cwd=ROOT, env=dict(env, **extra),
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True)
                took = time.perf_counter() - started
                ok = expect is None or proc.returncode == expect
                print(f"  {took:6.1f}s  {'ok' if ok else 'FAILED':6}  "
                      f"{label}", flush=True)
                if not ok:
                    failed.append(label)
                    print(proc.stdout[-3000:])
                for dumped in Path(tmp).glob(out.name + "*"):
                    reached.update(map(tuple, json.loads(
                        dumped.read_text(encoding="utf-8"))))
        finally:
            for name, blob in saved.items():
                (ROOT / name).write_bytes(blob)
    return reached, failed


def audit(reached: set) -> int:
    defs = functions()
    allow = read_allowlist()
    names = {f"{key[0]}::{name}": key for key, (name, _) in defs.items()}
    unreached = {key for key in defs if key not in reached}
    total = sum(lines for _, lines in defs.values())
    dead = sum(defs[key][1] for key in unreached)
    print(f"reach: {len(defs)} functions, {total} lines; "
          f"{len(unreached)} unreached holding {dead} lines, "
          f"{len(allow)} allowlisted")
    errors = 0
    for key in sorted(unreached):
        name = f"{key[0]}::{defs[key][0]}"
        if name not in allow:
            errors += 1
            print(f"  unreached: {name} ({defs[key][1]} lines, "
                  f"line {key[1]})")
    for name in sorted(allow):
        key = names.get(name)
        if key is None:
            errors += 1
            print(f"  stale allowlist entry (no such def): {name}")
        elif key in reached:
            errors += 1
            print(f"  stale allowlist entry (now reached): {name}")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", metavar="OUT", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    if "--" in argv:
        split = argv.index("--")
        argv, command = argv[:split], argv[split + 1:]
    else:
        command = []
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, command)
        return 0
    started = time.perf_counter()
    reached, failed = run_entries()
    print(f"reach: {len(ENTRIES)} entries in "
          f"{time.perf_counter() - started:.0f}s, {len(failed)} failed")
    errors = audit(reached)
    for label in failed:
        print(f"  entry failed: {label}")
    return 1 if errors or failed else 0


if __name__ == "__main__":
    sys.exit(main())
