"""flexprism benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload flex_export --seed 1 --seconds 30 --trace 0

Workloads: flex_export, certify_mix, validate_torus (see perfbench/README.md).
The workload runs in fresh child processes with single-thread settings.
Set-up is measured in several fresh processes and reported as the median.
Every timing is scaled to a reference host speed by the probes taken around
it (see ``end_to_end``).
``--trace 1`` adds a traced pass and reports the per-layer metrics instead
of the end-to-end ones.  Human-readable lines come first; the last line of
standard output is one JSON object.  A run record goes to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flex_export", "certify_mix", "validate_torus")
SETUP_PROBES = 6     # extra fresh-process set-ups; the workload process adds one more
TIME_LIMIT_S = 170   # every child must have ended by then
PROBE_REF_MS = 4.5   # the host-speed probe time that reported timings are scaled to
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class ChildFailed(Exception):
    pass


def run_child(argv: list[str], deadline: float) -> dict:
    """Run child.py to completion (killed at the deadline); parse its JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            cwd=ROOT,
            env={**os.environ, **SINGLE_THREAD_ENV},
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload process exceeded the time limit ({exc.timeout:.0f} s)")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"workload process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(main: dict, setups: list[list[float]], *,
               adjust: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of the untraced loop.

    The host switches between speed modes for seconds at a time, and by
    up to 1.7x, so a raw wall time says as much about the host as about
    the program.  Each job is therefore bracketed by a fixed probe kernel
    (``child.probe_ms``) and its time is scaled by ``PROBE_REF_MS`` over
    the probe, which reads it at the reference host speed; each set-up is
    scaled by the probes taken right after it.  ``adjust=False`` gives the
    raw wall-clock figures, which are printed as context.

    Each job of the list repeats once per pass; its time is taken as its
    median over the run.  ``face_frames_per_s`` is Σ(T·faces) ÷ Σ job time
    over one such median pass, and the percentiles run over every job
    attempted, each at its median time, so they follow the mix of job
    sizes.
    """
    def scale(seconds: float, probe: float) -> float:
        return seconds * PROBE_REF_MS / probe if adjust else seconds

    jobs = main["jobs"]
    by_job: dict[int, list[float]] = {}
    for idx, wall, _, probe in main["records"]:
        by_job.setdefault(idx, []).append(scale(wall, probe))
    median = {idx: statistics.median(times) for idx, times in by_job.items()}
    typical = [median[r[0]] for r in main["records"]]
    face_frames = sum(jobs[i]["frames"] * jobs[i]["faces"] for i in median)
    return {
        "face_frames_per_s": (face_frames / sum(median.values()), "1/s"),
        "job_ms_p50": (percentile(typical, 0.5) * 1e3, "ms"),
        "job_ms_p90": (percentile(typical, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(scale(s, p) for s, p in setups), "s"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024.0, "MB"),
    }


def run_record(args: argparse.Namespace, main: dict, setups: list[list[float]],
               metrics: dict, raw: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
        },
        "python": sys.version,
        "versions": main["versions"],
        "child_env": SINGLE_THREAD_ENV,
        "probe_ref_ms": PROBE_REF_MS,
        "setup_s_and_probe_ms": setups,
        "jobs": main["jobs"],
        "passes": main["cycles"],
        "records": main["records"],
        "trace_records": main.get("trace_records", []),
        "failures": main["failures"],
        "absent": main.get("absent", []),
        "spans_file": main.get("spans_file"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_wall_clock": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "flexprism" / "__init__.py").is_file():
        print(f"error: no flexprism sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [[r["setup_s"], r["setup_probe_ms"]]
                  for r in (run_child([*common, "--setup-only"], deadline)
                            for _ in range(SETUP_PROBES))]
        main = run_child([*common, "--seconds", str(args.seconds),
                          "--trace", str(args.trace)], deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append([main["setup_s"], main["setup_probe_ms"]])

    records = main["records"] + main.get("trace_records", [])
    attempted = len(records)
    failed = sum(1 for r in records if not r[2])
    e2e = end_to_end(main, setups)
    raw = end_to_end(main, setups, adjust=False)
    metrics = main["layer_metrics"] if args.trace else e2e
    metrics = {k: tuple(v) for k, v in metrics.items()}

    record_path = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(exist_ok=True)
    record_path.write_text(json.dumps(run_record(args, main, setups, {**e2e, **metrics}, raw),
                                      indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {main['cycles']} x {len(main['jobs'])} jobs")
    print(f"attempted {attempted}  failed {failed}  failed_ratio {failed / attempted:.4g} ratio")
    for name, (value, unit) in e2e.items():
        print(f"{name:<20} {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        if name != "peak_rss_mb":
            print(f"raw {name:<16} {value:.6g} {unit}  (wall clock, not gated)")
    probes = [r[3] for r in main["records"]]
    q1, q2, q3 = statistics.quantiles(probes, n=4) if len(probes) > 1 else probes * 3
    print(f"host-speed probe {q2:.3f} ms median, {q1:.3f}-{q3:.3f} quartiles "
          f"(timings above are scaled to {PROBE_REF_MS} ms)")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<48} {value:.6g} {unit}")
        if main["absent"]:
            print("absent (reported as 0): " + ", ".join(main["absent"]))
    for msg in main["failures"]:
        print(f"FAILED {msg}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
