#!/usr/bin/env python3
"""The homdeg benchmark: run one workload through the CLI and report.

    python3 benchmark/run.py --workload families --seed 1 --seconds 30 --trace 0

Workloads (see `workloads.py`): families, random-small, nonlinear-q.  The
run generates the workload's scripts from `--seed`, then runs every script
through `homdeg.cli.main` in passes until `--seconds` is used up (at least
one pass), one single-threaded process.  Every report is checked by
`oracle.py`.

Timings are reported in reference seconds: each is scaled by the host's
speed sampled while it ran (`hostspeed.py`), because the hosts this runs
on change speed by up to 1.8x within seconds.  The unscaled figures are
printed in the `info` line and kept in the result file.

With `--trace 0` the last line of output is a JSON object holding the
end-to-end metrics; with `--trace 1` untraced CLI passes alternate with
traced passes (`tracing.py`) and the last line holds the per-layer metrics.
Lines before it print every metric with its unit, the stamp of the run, and
where the full result and the spans were written (`.bench_build/`).

Exit status 0 with a result line, 2 without one when the program's
sources are not next to the benchmark.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "homdeg-bench"
SETUP_SPAWNS = 11
SPAWN_SAMPLES = 5
SETUP_PROBE = (
    "import homdeg.cli as cli; cli.build_arg_parser(); print('ready', flush=True)"
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}
# fail_ratio is 0 on a healthy run; the result line carries it as
# failed/attempted, so only the metrics that are never 0 go there.
RESULT_LINE_METRICS = [k for k in END_TO_END_UNITS if k != "fail_ratio"]


def per_layer_units():
    units = {k: "s" for k in tracing.LAYER_TIMES}
    units.update({
        "hilbert.samples": "count",
        "hilbert.gb_runs": "count",
        "groebner.runs": "count",
        "groebner.busy_s": "s",
        "groebner.adds": "count",
        "groebner.kept_ratio": "ratio",
        "groebner.basis_max": "count",
        "tracing.overhead_s": "s",
    })
    return units


def setup_seconds():
    """Time from spawning a fresh interpreter to `homdeg` imported and the
    CLI's argument parser built: (median in reference seconds, median raw)
    over SETUP_SPAWNS spawns after one that fills the bytecode cache.  The
    host's speed is sampled right before each spawn and after the last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    speed = hostspeed.Sampler()
    spawns = []
    for _ in range(SETUP_SPAWNS + 1):
        for _ in range(SPAWN_SAMPLES):
            speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            spawns.append((t0, time.perf_counter(), len(speed.samples) - SPAWN_SAMPLES))
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    for _ in range(SPAWN_SAMPLES):
        speed.sample()
    times = [speed.interval(*s, after=SPAWN_SAMPLES) for s in spawns[1:]]
    return statistics.median(t[1] for t in times), statistics.median(t[0] for t in times)


def tail(samples):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it, never below the median."""
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 11, n // 2)
    return xs[k], 100.0 * (k + 1) / n


def stamp(workload, seed):
    from homdeg.kernel import KERNEL_NAME

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "homdeg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "kernel": KERNEL_NAME,
        "rational": "gmpy2" if importlib.util.find_spec("gmpy2") else "fractions",
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
    }


@dataclass
class Pass:
    """One run over every script of the workload.  Per script, with the
    calibration chunks taken out: the time of `main()` (verdict) and of
    main() plus the oracle (wall, cpu), raw and in reference seconds (see
    `hostspeed.py`)."""

    raw: dict = field(default_factory=lambda: {"verdict": [], "wall": [], "cpu": []})
    ref: dict = field(default_factory=lambda: {"verdict": [], "wall": [], "cpu": []})
    reports: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def add(self, key, raw, ref):
        self.raw[key].append(raw)
        self.ref[key].append(ref)

    @property
    def wall(self):
        return sum(self.ref["wall"])

    @property
    def cpu(self):
        return sum(self.ref["cpu"])


def run_pass(jobs, paths, seed, traced=None):
    """Run every job once, through the CLI or, with a tracer, stage by
    stage; check each report.  The host's speed is sampled throughout and
    once before each script."""
    from homdeg import cli

    p = Pass()
    with hostspeed.Sampler() as speed:
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            speed.sample()
            first = len(speed.samples) - 1
            crashed = False
            c0, s0 = time.process_time(), time.perf_counter()
            try:
                if traced is None:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = cli.main(["--input", str(paths[job.name]), "--format", "json", *job.args])
                    text = out.getvalue()
                else:
                    rc, text = tracing.run_script(traced, job, seed)
            except Exception:  # a crash is one failed script, not a failed run
                crashed = True
                p.errors[job.name] = ["uncaught " + traceback.format_exc(limit=3)]
            v1 = time.perf_counter()
            if not crashed:
                report, errs = oracle.check(job, rc, text, seed)
                if errs and err.getvalue():
                    errs.append("stderr: " + err.getvalue().strip()[:300])
                p.reports[job.name] = report
                if errs:
                    p.errors[job.name] = errs
            c1, w1 = time.process_time(), time.perf_counter()
            speed.sample()
            p.add("verdict", *speed.interval(s0, v1, first))
            wall, wall_ref = speed.interval(s0, w1, first)
            p.add("wall", wall, wall_ref)
            cpu = c1 - c0 - (w1 - s0 - wall)
            p.add("cpu", cpu, cpu * wall_ref / wall)
    for name, report in p.reports.items():
        twin = p.reports.get(name[:-3] + "_fp") if name.endswith("_qq") else None
        if report is not None and twin is not None and oracle.to_fp(report) != twin:
            p.errors.setdefault(name[:-3] + "_fp", []).append(
                "GF(p) report is not the QQ report with the witness mod p"
            )
    return p


def measure(jobs, paths, seed, seconds, trace):
    """Passes until the time is used up.  Returns (untraced passes, traced
    passes, tracers)."""
    plain, traced, tracers, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        plain.append(run_pass(jobs, paths, seed))
        if trace:
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer):
                traced.append(run_pass(jobs, paths, seed, traced=tracer))
            tracers.append(tracer)
        rounds.append(time.perf_counter() - r0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return plain, traced, tracers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "homdeg" / "cli.py").is_file():
        print(f"error: no homdeg sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup, raw_setup = setup_seconds()
    jobs, rejected = workloads.make_jobs(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for job in jobs:
            paths[job.name] = run_dir / f"{job.name}.hd"
            paths[job.name].write_text(job.text, encoding="utf-8")
        plain, traced, tracers = measure(jobs, paths, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = plain + traced
    attempted = len(jobs) * len(passes)
    failed_names = [(i, n) for i, p in enumerate(passes) for n in p.errors]
    # One sample per script: the median over untraced passes of its time in
    # reference seconds, so the sample count and the tail percentile do not
    # depend on the pass count.
    verdicts = [statistics.median(v) for v in zip(*(p.ref["verdict"] for p in plain))]
    tail_value, tail_pct = tail(verdicts)
    wall = statistics.median(p.wall for p in plain)
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu for p in plain),
        "verdict_p50_s": statistics.median(verdicts),
        "verdict_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": len(failed_names) / attempted,
    }
    units = dict(END_TO_END_UNITS)
    if args.trace:
        per_pass = [tracing.layer_metrics(t) for t in tracers]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["tracing.overhead_s"] = statistics.median(p.wall for p in traced) - wall
        units.update(per_layer_units())
        metrics.update(layers)
    raw_verdicts = [statistics.median(v) for v in zip(*(p.raw["verdict"] for p in plain))]
    info = {
        "stamp": stamp(args.workload, args.seed),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_walls": {"untraced": [p.wall for p in plain], "traced": [p.wall for p in traced]},
        "scripts_per_pass": len(jobs),
        "verdict_tail": {"percentile": round(tail_pct, 1), "samples": len(verdicts)},
        "unscaled": {
            "setup_s": raw_setup,
            "wall_s": statistics.median(sum(p.raw["wall"]) for p in plain),
            "cpu_s": statistics.median(sum(p.raw["cpu"]) for p in plain),
            "verdict_p50_s": statistics.median(raw_verdicts),
            "verdict_tail_s": tail(raw_verdicts)[0],
        },
        "rejected_draws": rejected,
        "failures": {f"pass{i}:{n}": passes[i].errors[n] for i, n in failed_names},
    }
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = WORK / f"result-{tag}.json"
    result_path.write_text(json.dumps(
        {"info": info, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
         "passes": [{"raw": p.raw, "ref": p.ref} for p in plain]},
        indent=1,
    ))
    if tracers:
        spans_path = WORK / f"spans-{tag}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([{"spans": t.spans, "counters": t.counters} for t in tracers], fh)
        print(f"spans: {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name:<30} {value:>14.6f} {units[name]}")
    print(f"tail percentile: p{tail_pct:.1f} of {len(verdicts)} scripts")
    print("info: " + json.dumps(info, sort_keys=True))
    print(f"result: {result_path.relative_to(ROOT)}")
    names = per_layer_units() if args.trace else RESULT_LINE_METRICS
    print(json.dumps({
        "correct": not failed_names,
        "attempted": attempted,
        "failed": len(failed_names),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
