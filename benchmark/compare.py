#!/usr/bin/env python3
"""Compare benchmark results of two commits, metric by metric.

    python3 benchmark/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a result written by `run.py` (`.bench_build/homdeg-bench/
result-*.json`), all of one workload.  Prints each side's median, the
change as a share of the base median, and whether it stays within the
metric's bound in BENCHMARK.json.  Refuses (exit 2) to compare results
whose Python version, kernel or rational backend differ.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

STAMP_KEYS = ("python", "kernel", "rational", "workload")
ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    stamps = {tuple(r["info"]["stamp"][k] for k in STAMP_KEYS) for r in base + new}
    if len(stamps) != 1:
        print("refusing to compare results with different "
              f"{'/'.join(STAMP_KEYS)}: {sorted(stamps)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = False
    for name in base[0]["metrics"]:
        if name not in new[0]["metrics"]:
            continue
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        m = specs.get(name, {})
        change = (n - b) / b if b else float("nan")
        verdict = ""
        if "bound" in m:
            regressed = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse = worse or regressed
            verdict = "WORSE beyond bound" if regressed else "within bound"
        print(f"{name:<30} base {b:12.6f}  new {n:12.6f}  {change:+8.1%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
