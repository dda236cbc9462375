#!/usr/bin/env python3
"""Record the simulated digests the fidelity check compares against.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Run from the repository root, only when a change is meant to alter the
simulated results. For every recorded seed it runs one pass of each
named workload (default: all) and writes perfbench/golden/<workload>.json:
the default seed's full per-point digests and, for every recorded seed,
a short hash of each point's digest, in point order.
"""

import json
import sys

import run


def main(names):
    driver = run.build(timeout=850)
    run.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in names or run.WORKLOADS:
        default, seeds = {}, {}
        for seed in run.RECORDED_SEEDS:
            res = run.run_driver(driver, ["--workload", workload,
                                          "--seed", str(seed),
                                          "--seconds", "0"], timeout=600)
            if res["failed"]:
                sys.exit(f"{workload} seed {seed}: a point failed its "
                         f"checks; not recording")
            seeds[str(seed)] = [run.digest_hash(p["digest"])
                                for p in res["points"]]
            if seed == run.DEFAULT_SEED:
                default = {p["label"]: p["digest"] for p in res["points"]}
        # One line per seed keeps the file small and diffs readable.
        lines = [f'  "{s}": {json.dumps(h)}' for s, h in seeds.items()]
        path = run.GOLDEN_DIR / f"{workload}.json"
        path.write_text(
            f'{{"default_seed": {run.DEFAULT_SEED},\n'
            f'"default": {json.dumps(default, indent=1, sort_keys=True)},\n'
            f'"seeds": {{\n' + ",\n".join(lines) + "\n}}\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
