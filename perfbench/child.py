"""One workload process: set up, run the closed loop, check, optionally trace.

Started by ``run.py`` in a fresh interpreter with single-thread settings;
not meant to be run by hand.  Prints one JSON object as its last line.

Set-up time runs from the top of this file (before numpy and flexprism are
imported) until the workload's inputs are generated and written.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"


def probe_ms(iterations: int = 100) -> float:
    """ms of a fixed Python+numpy kernel: the host-speed probe.

    The kernel does what flexprism does most, small numpy calls from a Python
    loop, so it slows and speeds up with the host as the jobs do.  Every job
    is bracketed by one probe before and one after; ``run.py`` scales the
    job's time by them.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 24).reshape(8, 3)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(iterations):
        v = a[i % 8]
        acc += math.atan2(float(np.cross(v, a[(i + 1) % 8])[2]), float(v @ v) + 1.0)
    return (time.perf_counter() - t0) * 1e3


def setup_probe_ms() -> float:
    """The host speed right after set-up: median of five probes after a warm-up."""
    probe_ms()
    return statistics.median(probe_ms() for _ in range(5))


def run_jobs(jobs, work: Path, *, budget_s: float = 0.0, cycles: int = 0, tracer=None):
    """Closed loop over whole passes of ``jobs``.

    Runs ``cycles`` passes when given, otherwise passes until the summed job
    time reaches ``budget_s``.  Each job gets a fresh directory, created
    and removed outside its timed region, and is checked right after it
    ends, also outside the timed region.  A record is
    ``[job index, wall s, ok, host-speed probe ms]``, the probe being the
    mean of the probes just before and just after the job.
    """
    from workloads import Quality

    records, failures, quality = [], [], Quality()
    busy, done = 0.0, 0
    while (done < cycles) if cycles else (busy < budget_s):
        for idx, job in enumerate(jobs):
            job_dir = work / "job"
            shutil.rmtree(job_dir, ignore_errors=True)
            before = probe_ms()
            if tracer is not None:
                tracer.job = len(records)
                tracer.install()
            error = None
            t0 = time.perf_counter()
            try:
                out = job.run(job_dir)
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{job.label}: raised {exc!r}"
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            probe = (before + probe_ms()) / 2
            if error is None:
                try:
                    quality.merge(job.check(out, job_dir))
                except Exception as exc:
                    error = f"{job.label}: check failed: {exc}"
            out = None  # free this job's outputs before the next job runs
            shutil.rmtree(job_dir, ignore_errors=True)
            if error is not None:
                failures.append(error)
            records.append([idx, wall, error is None, probe])
            busy += wall
        done += 1
    return records, failures, quality, done


def layer_metrics(tracer, jobs, records, quality, untraced_cycle_s) -> dict:
    """Per-layer metrics from one traced run over a fixed number of passes."""
    from tracer import LAYERS, TRACED, metric_name

    agg = tracer.aggregate()
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        total = 0.0
        for name in TRACED[layer]:
            m = metric_name(layer, name)
            entry = agg.get(m, {"calls": 0, "self_ms": 0.0})
            metrics[f"{m}.calls"] = (entry["calls"], "count")
            metrics[f"{m}.self_ms"] = (entry["self_ms"], "ms")
            total += entry["self_ms"]
        metrics[f"{layer}.self_ms"] = (total, "ms")
    frames = sum(jobs[r[0]].frames for r in records)
    face_frames = sum(jobs[r[0]].frames * jobs[r[0]].faces for r in records)
    traced_s = sum(r[1] for r in records)
    passes = len(records) / len(jobs)
    metrics.update({
        "io.bytes_written": (quality.bytes_written, "bytes"),
        "io.files_written": (quality.files_written, "count"),
        "assembly.flexion_interval.calls_per_frame": (
            agg.get("assembly.flexion_interval", {"calls": 0})["calls"] / frames, "ratio"),
        "geom.wedge_angle.calls_per_face_frame": (
            agg.get("geom.wedge_angle", {"calls": 0})["calls"] / face_frames, "ratio"),
        "flexion.dihedral.nan_ratio": (
            quality.nan_entries / quality.dihedral_entries if quality.dihedral_entries else 0.0,
            "ratio"),
        "flexion.rigidity.worst_dev_rel": (quality.rigidity_rel, "ratio"),
        "flexion.closure.worst_gap_rel": (quality.closure_rel, "ratio"),
        "flexion.dihedral.worst_gap_rad": (quality.dihedral_gap_rad, "rad"),
        "trace.overhead_ratio": (traced_s / (untraced_cycle_s * passes), "ratio"),
    })
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import flexprism
    import workloads

    if Path(flexprism.__file__).resolve().parent != ROOT / "src" / "flexprism":
        raise SystemExit(f"imported flexprism from {flexprism.__file__}, not from {ROOT / 'src'}")
    workload = workloads.WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workload.setup(np.random.default_rng(args.seed), work)
        setup_s = time.perf_counter() - T_START
        result = {"setup_s": setup_s, "setup_probe_ms": setup_probe_ms()}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        records, failures, quality, cycles = run_jobs(jobs, work, budget_s=args.seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update({
            "jobs": [{"label": j.label, "frames": j.frames, "faces": j.faces} for j in jobs],
            "records": records,
            "cycles": cycles,
            "failures": failures[:10],
            "peak_rss_kb": peak_rss_kb,
            "versions": {"numpy": np.__version__, "flexprism": flexprism.__version__},
        })
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            untraced_cycle_s = sum(r[1] for r in records) / cycles
            t_records, t_failures, t_quality, _ = run_jobs(
                jobs, work, cycles=workload.trace_cycles, tracer=tracer)
            metrics = layer_metrics(tracer, jobs, t_records, t_quality, untraced_cycle_s)
            RUNS.mkdir(exist_ok=True)
            spans = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans)
            result.update({
                "layer_metrics": metrics,
                "absent": tracer.absent,
                "trace_records": t_records,
                "spans_file": str(spans.relative_to(ROOT)),
            })
            result["failures"] += t_failures[:10]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
