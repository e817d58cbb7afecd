"""graspkit benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload noisy --seed 0 --seconds 10 --trace 0

Run from the repository root.  Every workload runs in fresh single-threaded
child processes (``workload.py``) that import graspkit from ``src/``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Set-up is
timed in seven processes: three that stop after warm-up, the measured one,
then three more that stop after warm-up, so the samples span the whole run;
``setup_s`` is their median.  ``--trace 1`` runs the workload
untraced and then traced, each for half of ``--seconds``, and prints the
per-layer metrics computed from the written spans plus the tracing
overhead between the two runs.

The human-readable report comes first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  Each run also
writes that object, the machine metadata and the trace report under
``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_run"
SETUPS_AROUND = 3  # set-up-only processes before and again after the measured run

# Extra per-workload figures printed beside the end-to-end metrics.  They are
# checked through `correct` and `failed` rather than bounded, because they
# are exact on this commit (error rate 0, clean accuracy 1.0) and exist only
# on some workloads.
QUALITY_UNITS = {"accuracy": "ratio", "cleared_pct": "%"}

# Spans each workload must exercise (the layers it is chosen to load).
EXPECTED = {
    "clean": ("bundle.write_bundle", "bundle.read_bundle", "dataset.coverage_ratio", "encoder.ideal_bundle",
              "encoder.encode_targets", "decoder.suppress_non_maxima", "grouper.group", "geometry.rotated_iou"),
    "noisy": ("bundle.read_bundle", "decoder.decode_bundle", "decoder.select_grasp_keypoints",
              "decoder.suppress_non_maxima", "grouper.group", "grouper.group_candidates",
              "grouper.extract_center_scores", "grouper.filter_pairs", "grouper.orientation_filter",
              "geometry.rotated_iou", "evaluator.evaluate_dataset"),
    "binpick": ("binpick.run_bin_picking", "binpick.render", "depth.score_grasps", "depth.gripper_regions"),
    "cli": ("cli.import", "cli.encode", "cli.group", "cli.evaluate"),
}


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cores": "shared with other tenants, not pinned; no machine setting is changed",
    }


def spawn(workload, seed, seconds, *extra):
    """Run one workload process to completion; returns (start, result)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), *extra]
    start = time.monotonic()
    # own process group, so a timeout also ends the CLI calls it started
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{workload} process timed out")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"{workload} process exited with code {proc.returncode}")
    return start, json.loads(out.splitlines()[-1])


def p90(values):
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    rank = math.ceil(0.9 * len(values))
    return sorted(values)[rank - 1], len(values) - rank


def end_to_end(args):
    def setup_only():
        start, res = spawn(args.workload, args.seed, args.seconds, "--setup-only")
        return res["ready"] - start

    setups = [setup_only() for _ in range(SETUPS_AROUND)]
    start, res = spawn(args.workload, args.seed, args.seconds)
    setups.append(res["ready"] - start)
    setups += [setup_only() for _ in range(SETUPS_AROUND)]
    lat = res["latencies_ms"]
    tail, beyond = p90(lat)
    values = {
        "ops_per_s": len(lat) / res["elapsed_s"],
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": f"{len(lat)} ops in {res['elapsed_s']:.2f} s",
        "op_ms_p50": f"n={len(lat)}",
        "op_ms_p90": f"n={len(lat)}, {beyond} beyond",
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": "largest CLI child" if args.workload == "cli" else "workload process",
    }
    return values, notes, [res]


def traced(args):
    half = args.seconds / 2
    _, plain = spawn(args.workload, args.seed, half)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{args.workload}.jsonl"
    _, res = spawn(args.workload, args.seed, half, "--spans", str(path))
    values, layers, op_ms = spans.report(path)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(op_ms) / statistics.median(plain["latencies_ms"]) - 1)
    total = sum(op_ms)
    lines = [f"trace report ({len(op_ms)} traced ops, {total:.1f} ms of op time; "
             f"overhead {values['trace.overhead_pct']:+.2f}% on op_ms_p50)",
             f"  {'span':34s} {'self ms':>10s} {'ms/op':>8s} {'calls':>7s} {'share':>7s}"]
    for name, (self_ms, calls) in layers.items():
        flag = "   <- zero calls, expected on this workload" if not calls and name in EXPECTED[args.workload] else ""
        if name == "cli.import":  # probes run between ops: no share of op time
            lines.append(f"  {name:34s} {self_ms:10.2f} {'-':>8s} {calls:7d} {'-':>7s}{flag}")
            continue
        share = f"{100.0 * self_ms / total:6.2f}%"
        lines.append(f"  {name:34s} {self_ms:10.2f} {self_ms / len(op_ms):8.3f} {calls:7d} {share:>7s}{flag}")
    notes = {name: "" for name in values}
    return values, notes, [plain, res], lines


def main():
    parser = argparse.ArgumentParser(description="graspkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "graspkit" / "__init__.py").is_file():
        print(f"error: no graspkit sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    info = machine()
    trace_lines = []
    if args.trace:
        values, notes, results, trace_lines = traced(args)
        wanted = spec["per_layer"]
    else:
        values, notes, results = end_to_end(args)
        wanted = spec["end_to_end"]
    attempted = sum(len(r["latencies_ms"]) for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    quality = results[-1]["quality"]

    print(f"graspkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s per run, trace {args.trace}")
    print("machine: " + json.dumps(info))
    for m in wanted:
        print(f"  {m['name']:40s} {values[m['name']]:14.4f} {m['unit']:6s} {notes[m['name']]}")
    if not args.trace:
        print(f"  {'error_rate':40s} {failed / attempted:14.4f} {'ratio':6s} {failed} failed of {attempted}")
        for name, unit in QUALITY_UNITS.items():
            value = f"{quality[name]:14.4f}" if name in quality else f"{'n/a':>14s}"
            print(f"  {name:40s} {value} {unit:6s}")
    for line in trace_lines:
        print(line)
    for problem in problems:
        print(f"problem: {problem}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    WORK.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": info, "quality": quality, "problems": problems, "trace_report": trace_lines, **result}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
