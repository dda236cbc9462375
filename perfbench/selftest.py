#!/usr/bin/env python3
"""Self-test of the host-performance benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks that:
  1. the metric names and units in run.py match BENCHMARK.json;
  2. a clean pass matches the recorded digests;
  3. the fidelity check fires: with one MachineConfig latency changed,
     every affected point counts as failed, and a missing, truncated or
     incomplete golden file fails the run instead of skipping the check;
  4. the counts the benchmark reads reconcile with collectRunMetrics()
     (ops, messages), and the traced run's exact counts repeat
     bit-for-bit across runs;
  5. the traced run writes its spans with the slowest-point footer;
  6. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark fails without printing a result.
Exits 0 if every check passes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def one_pass(driver, workload, *extra):
    return run.run_driver(driver, ["--workload", workload, "--seed",
                                   str(run.DEFAULT_SEED), "--seconds", "0",
                                   *extra], timeout=300)


def main():
    driver = run.build(timeout=850)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} ==
          run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} ==
          run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in spec["workloads"]] == run.WORKLOADS,
          "BENCHMARK.json workloads match run.py")

    # Fidelity: clean vs. one latency changed. mc_verify's explorer
    # ignores machine latencies, but its simulated cross-check does not.
    for workload in ("counter_storm", "mc_verify"):
        golden = run.load_golden(workload)
        clean = one_pass(driver, workload)
        added, _, checked = run.fidelity(clean, golden, run.DEFAULT_SEED)
        check(checked and added == 0 and clean["failed"] == 0,
              f"{workload}: clean pass matches the recorded digests")
        bad = one_pass(driver, workload, "--mem-service-time", "21")
        added, _, _ = run.fidelity(bad, golden, run.DEFAULT_SEED)
        check(added + bad["failed"] == bad["attempted"],
              f"{workload}: mem_service_time 20 -> 21 fails all "
              f"{bad['attempted']} points (got {added + bad['failed']})")

    # A golden file that cannot be read is an error, not a skipped check.
    bad_dir = run.BUILD_DIR.parent / "selftest-golden"
    shutil.rmtree(bad_dir, ignore_errors=True)
    bad_dir.mkdir(parents=True)
    text = (run.GOLDEN_DIR / "tc_spin.json").read_text()
    (bad_dir / "tc_spin.json").write_text(text[:len(text) // 2])
    incomplete = run.load_golden("app_sweep")
    del incomplete["seeds"]["3"]
    (bad_dir / "app_sweep.json").write_text(json.dumps(incomplete))
    real_dir, run.GOLDEN_DIR = run.GOLDEN_DIR, bad_dir
    try:
        for workload, what in (("tc_spin", "truncated"),
                               ("counter_storm", "missing"),
                               ("app_sweep", "incomplete")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = run.main(["--workload", workload, "--seconds", "0"])
            check(rc != 0 and '"correct"' not in out.getvalue(),
                  f"{workload}: {what} golden file fails the run "
                  f"(exit {rc})")
    finally:
        run.GOLDEN_DIR = real_dir
        shutil.rmtree(bad_dir, ignore_errors=True)

    # Reconciliation and exact repeatability of the traced counts.
    spans = run.SPANS_DIR / "selftest.json"
    run.SPANS_DIR.mkdir(parents=True, exist_ok=True)
    traced = []
    for _ in range(2):
        traced.append(run.run_driver(
            driver, ["--workload", "counter_storm", "--trace", "1",
                     "--seconds", "0", "--spans", str(spans)], timeout=300))
    m = traced[0]["metrics"]
    ops = sum(p["digest"]["ops"] for p in traced[0]["points"])
    msgs = sum(p["digest"]["messages"] for p in traced[0]["points"])
    check(m["cpu.ops"] == ops and m["net.messages"] == msgs,
          f"benchmark counts reconcile with collectRunMetrics "
          f"(ops {m['cpu.ops']} vs {ops}, messages {m['net.messages']} "
          f"vs {msgs})")
    check(all(t["failed"] == 0 for t in traced),
          "traced passes reproduce the untraced digests")
    exact = [k for k, u in run.PER_LAYER.items() if u == "count"]
    check(all(traced[0]["metrics"][k] == traced[1]["metrics"][k]
              for k in exact), "exact counts repeat across runs")

    doc = json.loads(spans.read_text())
    cats = {e["cat"] for e in doc["traceEvents"]}
    check({"workload", "pass", "point", "phase", "window"} <= cats and
          "window" in doc["footer"] and "point" in doc["footer"],
          "spans file has every span kind and the slowest-point footer")

    # A directory with only the benchmark's own files must fail cleanly.
    bare = run.BUILD_DIR.parent / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "tc_spin", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=170)
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          f"bare directory: exit {p.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else
          "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
