#!/usr/bin/env python3
"""Host-performance benchmark of the atomics-dsm simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the C++ driver (perfbench/driver.cc
and the simulator library from src/) into .bench_build/perfbench, runs
one workload for S seconds, checks every point's simulated digest
against the recorded one (perfbench/golden/), prints each metric with
its unit and, as the last line, one JSON result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
and writes the traced run's spans to
.bench_build/perfbench-spans/<workload>-seed<N>.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "perfbench"
SPANS_DIR = Path(".bench_build") / "perfbench-spans"
GOLDEN_DIR = BENCH_DIR / "golden"
WORKLOADS = ["tc_spin", "counter_storm", "app_sweep", "mc_verify"]

# Seeds whose digests are recorded; DEFAULT_SEED's in full.
DEFAULT_SEED = 1
RECORDED_SEEDS = range(16)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.probe_near_ns": "ns",
    "sim.probe_far_ns": "ns",
    "sim.unexplained_share": "ratio",
    "cpu.ops": "count",
    "cpu.events_per_op": "events/op",
    "cpu.probe_hit_ns": "ns",
    "cpu.hit_share": "ratio",
    "cpu.setup_ms_per_point": "ms",
    "cpu.probe_system_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_frac": "ratio",
    "proto.probe_miss_ns": "ns",
    "proto.miss_share": "ratio",
    "proto.nacks": "count",
    "proto.retries": "count",
    "proto.atomic_success_frac": "ratio",
    "net.messages": "count",
    "net.hops_per_msg": "hops/msg",
    "net.probe_msg_ns": "ns",
    "mem.accesses": "count",
    "mem.queue_cycles_per_access": "cycles/access",
    "stats.harvest_ms_per_point": "ms",
    "stats.probe_json_ms": "ms",
    "exp.point_ms_p50": "ms",
    "exp.point_ms_p90": "ms",
    "exp.point_ms_max": "ms",
    "mc.states": "count",
    "mc.transitions": "count",
    "mc.us_per_transition": "us",
    "mc.probe_us_per_transition": "us",
    "trace.overhead_frac": "ratio",
    "host.speed": "ratio",
    "host.raw_wall_s": "s",
    "host.raw_setup_s": "s",
    "sim_phase.cache_frac": "ratio",
    "sim_phase.transit_frac": "ratio",
    "sim_phase.dir_queue_frac": "ratio",
    "sim_phase.dir_service_frac": "ratio",
    "sim_phase.owner_frac": "ratio",
    "sim_phase.fanout_frac": "ratio",
    "sim_phase.retry_wait_frac": "ratio",
}


class BenchError(Exception):
    pass


def run_cmd(cmd, timeout, log=None):
    """Run cmd in its own process group; kill the group on timeout."""
    out = open(log, "w") if log else subprocess.PIPE
    try:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT if log
                                else subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{cmd[0]} timed out after {timeout:.0f} s")
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    finally:
        if log:
            out.close()
    return proc.returncode, stdout, stderr


def build(timeout):
    """Configure (once) and build the driver; returns its path."""
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    deadline = time.monotonic() + timeout
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc, _, _ = run_cmd(cmd, timeout, log)
        if rc != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("configure failed:\n" + tail(log))
    jobs = str(min(4, os.cpu_count() or 1))
    rc, _, _ = run_cmd(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                       max(1.0, deadline - time.monotonic()), log)
    if rc != 0:
        raise BenchError("build failed:\n" + tail(log))
    return BUILD_DIR / "perfbench_driver"


def tail(path, lines=30):
    try:
        return "\n".join(Path(path).read_text().splitlines()[-lines:])
    except OSError:
        return ""


def run_driver(driver, args, timeout):
    rc, stdout, stderr = run_cmd([str(driver)] + args, timeout)
    if rc != 0:
        raise BenchError(f"driver exited with {rc}:\n{stderr[-3000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


def digest_hash(digest):
    canon = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_golden(workload):
    """The recorded digests of workload; BenchError if they are missing
    or unreadable, so that the fidelity check cannot silently turn off."""
    path = GOLDEN_DIR / f"{workload}.json"
    try:
        golden = json.loads(path.read_text())
        ok = (isinstance(golden, dict)
              and isinstance(golden.get("default_seed"), int)
              and isinstance(golden.get("default"), dict)
              and isinstance(golden.get("seeds"), dict)
              and all(isinstance(golden["seeds"].get(str(s)), list)
                      for s in RECORDED_SEEDS))
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read recorded digests {path}: {e}")
    if not ok:
        raise BenchError(f"recorded digests {path} are incomplete")
    return golden


def fidelity(result, golden, seed):
    """Count points whose digest differs from the recorded one.

    Returns (failed executions to add, mismatch lines, checked). Only a
    seed outside RECORDED_SEEDS goes unchecked."""
    points = result["points"]
    if seed == golden["default_seed"]:
        recorded = len(golden["default"])
        want = [golden["default"].get(p["label"]) for p in points]
        got = [p["digest"] for p in points]
    elif seed in RECORDED_SEEDS:
        want = golden["seeds"][str(seed)]
        recorded = len(want)
        got = [digest_hash(p["digest"]) for p in points]
    else:
        return 0, [], False
    add, lines = 0, []
    if recorded != len(points):
        lines.append(f"{len(points)} points ran, {recorded} recorded")
    for i, p in enumerate(points):
        if recorded != len(points) or want[i] != got[i]:
            add += p["executions"] - p["failed"]
            lines.append(f"digest mismatch: {p['label']}: "
                         f"got {json.dumps(p['digest'])}")
    return add, lines, True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    start = time.monotonic()
    try:
        golden = load_golden(args.workload)
        driver = build(timeout=850)
        dargs = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        spans = None
        if args.trace:
            SPANS_DIR.mkdir(parents=True, exist_ok=True)
            spans = SPANS_DIR / f"{args.workload}-seed{args.seed}.json"
            dargs += ["--spans", str(spans)]
        result = run_driver(driver, dargs, timeout=args.seconds + 120)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    added, mismatches, checked = fidelity(result, golden, args.seed)
    failed = result["failed"] + added
    attempted = result["attempted"]
    units = PER_LAYER if args.trace else END_TO_END
    missing = [m for m in units if m not in result["metrics"]]
    if missing:
        print(f"perfbench: driver did not report {missing}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  "
          f"({time.monotonic() - start:.1f} s including build)")
    for p in result["points"]:
        if "problem" in p:
            print(f"FAILED {p['label']}: {p['problem']}")
    if "probe_problem" in result:
        print(f"FAILED probe: {result['probe_problem']}")
    for line in mismatches:
        print(line)
    if not checked:
        # No recorded digests for this seed: print them for diffing.
        for p in result["points"]:
            print(f"digest {p['label']}: {json.dumps(p['digest'])}")
    walls = result["untraced_pass_wall_s"]
    print(f"  host speed {result['host_speed']:.4g} (calibration kernel, "
          f"1 = reference host); raw untraced pass times "
          f"{min(walls):.4g}-{max(walls):.4g} s")
    for name, unit in units.items():
        print(f"  {name:32s} {result['metrics'][name]:>16.6g} {unit}")
    print(f"  {'fail_frac':32s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} point runs failed"
          f"{'' if checked else '; no recorded digests for this seed'})")
    slow = result["slowest"]
    line = f"slowest point: {slow['point']} ({slow['point_ms']:.1f} ms)"
    if "window" in slow:
        w = slow["window"]
        line += (f"; slowest window: ticks [{w['tick_lo']:.0f}, "
                 f"{w['tick_hi']:.0f}) {w['host_ms']:.2f} ms, "
                 f"{w['events']:.0f} events, {w['hits']:.0f} hits, "
                 f"{w['messages']:.0f} messages")
    print(line)
    if spans is not None:
        print(f"spans: {spans}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
