"""One benchmark workload in one fresh, single-threaded process.

The process builds its inputs from the seed, warms up, runs ops back to
back for the given number of seconds (a closed loop with one client),
then checks every op's output.  Its last stdout line is one JSON object
for ``run.py``, which starts it as

    python3 bench/workload.py --workload noisy --seed 0 --seconds 10 [--setup-only] [--spans FILE]

``--setup-only`` stops after warm-up, so the parent can time set-up
several times; ``--spans`` traces every op and writes the spans there.
Library functions are always called through their module attribute, so
the tracer's wrappers see the calls.

Each op's output is reduced to a digest as soon as the op ends, and only
the first output per (input, digest) is kept, so the run's memory does not
grow with the number of ops.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from graspkit import binpick, bundle, dataset, encoder, evaluator, grouper
from graspkit import GripperModel2D, MatchCriteria, decode_bundle, encode_targets, is_match
from graspkit.geometry import grasp_to_record

import inputs
from spans import Tracer

now = time.perf_counter
REFERENCE = Path(__file__).with_name("reference.json")
WORK = Path.cwd() / ".bench_run"


def digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def criteria(profile):
    return MatchCriteria(eval_height=profile.eval_height)


def load_reference(name, seed):
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed), {})


def item_key(item):
    """Reference key of an input: "3" for image 3, "3/group" for a CLI step."""
    return "/".join(map(str, item)) if isinstance(item, tuple) else str(item)


def digest_flags(name, seed, records):
    """One flag per record: True when the op's output is as expected.

    Each output digest must equal the reference recorded for this seed or,
    for a seed without one, the first digest seen for the same input.
    """
    expected = dict(load_reference(name, seed))
    return [key is not None and expected.setdefault(item_key(item), key) == key for item, key in records]


class Clean:
    """Oracle round trip: coverage, encode, GKTB write/read, group, top-1."""

    N = 72

    def __init__(self, seed, tracer):
        self.images = inputs.clean_images(seed, self.N)
        self.items = list(range(self.N))

    def op(self, i):
        img = self.images[i]
        profile = img["profile"]
        decision = dataset.classify_annotation(dataset.coverage_ratio(img["truths"], img["mask"]))
        built = encoder.ideal_bundle(img["truths"], inputs.encoder_config(profile), seed=img["embed_seed"])
        buf = io.BytesIO()
        bundle.write_bundle(built, buf)
        buf.seek(0)
        found = grouper.group(bundle.read_bundle(buf), profile.thresholds, k=inputs.K)
        report = evaluator.evaluate_dataset(
            {img["id"]: found}, {img["id"]: img["truths"]}, criteria(profile), policy="top1"
        )
        return decision, found, report

    @staticmethod
    def digest(out):
        decision, found, report = out
        return digest([decision.decision, decision.ratio, [grasp_to_record(g) for g in found], report.to_dict()])

    def check(self, records, outputs):
        """Every truth the encoder kept must be recovered, and top-1
        accuracy must be 1.0."""
        good = {}
        for (i, key), (_, found, report) in outputs.items():
            img = self.images[i]
            _, index = encode_targets(img["truths"], inputs.encoder_config(img["profile"]))
            crit = criteria(img["profile"])
            recovered = all(any(is_match(f, img["truths"][e.index], crit) for f in found) for e in index)
            good[i, key] = recovered and report.accuracy == 1.0
        failed = sum(1 for record in records if not good.get(record, False))
        correct = sum(outputs[record][2].correct for record in records if record in outputs)
        return failed, [], {"accuracy": correct / len(records)}


class Noisy:
    """A validation pass over clutter-filled bundles: read, group, top-n."""

    N = 54

    def __init__(self, seed, tracer):
        self.seed = seed
        self.images = inputs.noisy_images(seed, self.N)
        self.items = list(range(self.N))

    def op(self, i):
        img = self.images[i]
        found = grouper.group(bundle.read_bundle(io.BytesIO(img["gktb"])), img["profile"].thresholds, k=inputs.K)
        report = evaluator.evaluate_dataset(
            {img["id"]: found}, {img["id"]: img["truths"]}, criteria(img["profile"]), policy="topn"
        )
        return found, report

    @staticmethod
    def digest(out):
        found, report = out
        return digest([[grasp_to_record(g) for g in found], report.to_dict()])

    def check(self, records, outputs):
        failed = digest_flags("noisy", self.seed, records).count(False)
        correct = sum(outputs[record][1].correct for record in records if record in outputs)
        return failed, self.self_check(records, outputs), {"accuracy": correct / len(records)}

    def self_check(self, records, outputs):
        """Properties the workload relies on; a lost one fails the run:
        inputs are deterministic per seed, both roles fill top-k on every
        image, and grouping yields at least ten grasps per image on average."""
        problems = []
        if inputs.noisy_images(self.seed, 1)[0]["gktb"] != self.images[0]["gktb"]:
            problems.append("noisy generator is not deterministic for this seed")
        for img in self.images:
            left, right = decode_bundle(bundle.read_bundle(io.BytesIO(img["gktb"])), k=inputs.K)
            if len(left) != inputs.K or len(right) != inputs.K:
                problems.append(f"{img['id']}: top-{inputs.K} not filled ({len(left)} left, {len(right)} right)")
        counts = [len(outputs[record][0]) for record in records if record in outputs]
        if not counts or statistics.fmean(counts) < 10:
            problems.append("fewer than 10 grouped grasps per image on average")
        return problems


class BinPick:
    """Picking attempts on 25-object scenes with the oracle detector.

    One op is one attempt.  All attempts of one scene run inside one
    ``run_bin_picking`` call, so an item here is a whole scene, and the
    timed loop splits that call into ops at the scene's renders.
    """

    OBJECTS = 25
    N = 8

    def __init__(self, seed, tracer):
        self.seed = seed
        self.scene_seeds = [seed * 1000 + t for t in range(self.N)]
        self.model = GripperModel2D()
        self.items = list(range(self.N))

    def prepare(self, t):
        """A fresh scene for item ``t`` and its oracle detector."""
        scene = binpick.make_scene(self.scene_seeds[t], self.OBJECTS)
        return scene, binpick.oracle_detector(scene)

    def pick(self, scene, detect):
        return binpick.run_bin_picking(scene, detect, self.model)

    def op(self, t):
        return self.pick(*self.prepare(t))

    @staticmethod
    def digest(log):
        return digest(log.to_dict())

    def check(self, records, outputs):
        """The attempt log of every scene must match its reference; a
        mismatch fails every attempt of that scene."""
        flags = digest_flags("binpick", self.seed, [(t, key) for t, key, _ in records])
        failed = sum(attempts for (_, _, attempts), ok in zip(records, flags) if not ok)
        logs = [outputs[t, key] for t, key, _ in records if (t, key) in outputs]
        cleared = 100.0 * sum(log.cleared for log in logs) / max(sum(log.n_objects for log in logs), 1)
        return failed, [], {"cleared_pct": cleared}


class Cli:
    """Chained CLI calls per image: encode, group, then evaluate."""

    N = 4
    STEPS = ("encode", "group", "evaluate")

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.tmp = WORK / f"cli-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        images = inputs.clean_images(seed, self.N)
        self.seeds = [img["embed_seed"] for img in images]
        for n, img in enumerate(images):
            lines = [json.dumps({**grasp_to_record(g), "image_id": img["id"]}) for g in img["truths"]]
            (self.tmp / f"truth{n}.jsonl").write_text("\n".join(lines) + "\n")
        self.items = [(n, step) for n in range(self.N) for step in self.STEPS]

    def command(self, n, step):
        tmp = self.tmp
        if step == "encode":
            return ["encode", "--annotations", f"{tmp}/truth{n}.jsonl", "--profile", "cornell",
                    "--image-size", "228x228", "--out", f"{tmp}/img{n}.gktb", "--seed", str(self.seeds[n])]
        if step == "group":
            return ["group", "--bundle", f"{tmp}/img{n}.gktb", "--profile", "cornell", "--image-id", f"img{n:03d}"]
        return ["evaluate", "--pred", f"{tmp}/pred{n}.jsonl", "--truth", f"{tmp}/truth{n}.jsonl", "--profile", "cornell"]

    def call(self, argv, span, traced):
        if traced:
            self.tracer.begin(span)
        try:
            return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=60)
        finally:
            if traced:
                self.tracer.end()

    def op(self, item):
        """One subprocess; returns its exit code and its output, with the
        GKTB file's hash appended for encode."""
        n, step = item
        traced = self.tracer is not None and self.tracer.op is not None
        done = self.call(["-m", "graspkit", *self.command(n, step)], "cli." + step, traced)
        if step == "group":
            (self.tmp / f"pred{n}.jsonl").write_text(done.stdout)
            if traced:
                self.tracer.count("bundle.bytes", (self.tmp / f"img{n}.gktb").stat().st_size)
        text = done.stdout.replace(str(self.tmp), "<tmp>")
        if step == "encode" and done.returncode == 0:
            text += hashlib.sha256((self.tmp / f"img{n}.gktb").read_bytes()).hexdigest()
        return done.returncode, text

    def probe_imports(self, times=5):
        """Time fresh ``import graspkit`` processes, between ops, for the
        traced run."""
        for _ in range(times):
            self.call(["-c", "import graspkit"], "cli.import", traced=True)

    @staticmethod
    def digest(out):
        return digest(list(out))

    def check(self, records, outputs):
        """Every call must exit 0 and print what the reference recorded."""
        flags = digest_flags("cli", self.seed, records)
        failed = sum(1 for record, ok in zip(records, flags) if not ok or outputs[record][0] != 0)
        reports = [json.loads(outputs[record][1]) for record in records
                   if record[0][1] == "evaluate" and record in outputs and outputs[record][0] == 0]
        accuracy = statistics.fmean(r["accuracy"] for r in reports) if reports else 0.0
        return failed, [], {"accuracy": accuracy}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {"clean": Clean, "noisy": Noisy, "binpick": BinPick, "cli": Cli}


def warm_up(wl):
    """A few untimed ops: one scene, one CLI chain or four images."""
    count = {BinPick: 1, Cli: len(Cli.STEPS)}.get(type(wl), 4)
    for item in wl.items[:count]:
        wl.op(item)


def attempt(fn, *args):
    """Run one op; an exception is printed and returned, never raised."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed op is counted, never fatal
        traceback.print_exc()
        return exc


def keep(wl, item, out, outputs):
    """Digest an op's output, keeping the first output per digest."""
    key = None if isinstance(out, Exception) else wl.digest(out)
    if key is not None:
        outputs.setdefault((item, key), out)
    return key


def run_ops(wl, seconds, tracer):
    """Closed loop over ``wl.items``; one op per item."""
    latencies, records, outputs = [], [], {}
    start = now()
    deadline = start + seconds
    while True:
        item = wl.items[len(records) % len(wl.items)]
        if tracer is not None:
            tracer.begin_op(len(records))
        t0 = now()
        out = attempt(wl.op, item)
        t1 = now()
        if tracer is not None:
            tracer.end_op()
        latencies.append(1000.0 * (t1 - t0))
        records.append((item, keep(wl, item, out, outputs)))
        if t1 >= deadline:
            return latencies, records, outputs, t1 - start


def run_binpick(wl, seconds, tracer):
    """Whole scenes until the deadline; one op per picking attempt.

    Each scene and its detector are built before the scene's first op.
    The scene's renders split its ``run_bin_picking`` call into ops:
    [call, 2nd render), [2nd render, 3rd render), ..., [last render, end],
    so every op holds one render, detect, score and decide.
    """
    latencies, records, outputs = [], [], {}
    start = now()
    deadline = start + seconds
    while True:
        t = wl.items[len(records) % len(wl.items)]
        scene, detect = wl.prepare(t)
        render = scene.render
        renders = []

        def split_render():
            renders.append(None)
            if len(renders) > 1:  # the first render is part of the first op
                bounds.append(now())
                if tracer is not None:
                    tracer.split_op(len(latencies) + len(bounds) - 1)
            return render()

        scene.render = split_render
        if tracer is not None:
            tracer.begin_op(len(latencies))
        bounds = [now()]
        log = attempt(wl.pick, scene, detect)
        bounds.append(now())
        if tracer is not None:
            tracer.end_op()
        latencies += [1000.0 * (b - a) for a, b in zip(bounds, bounds[1:])]
        records.append((t, keep(wl, t, log, outputs), len(bounds) - 1))
        if bounds[-1] >= deadline:
            return latencies, records, outputs, bounds[-1] - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = Tracer() if args.spans else None
    wl = WORKLOADS[args.workload](args.seed, tracer)
    try:
        warm_up(wl)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        if tracer is not None:
            tracer.install()
        run = run_binpick if isinstance(wl, BinPick) else run_ops
        latencies, records, outputs, elapsed = run(wl, args.seconds, tracer)
        # the high-water mark of set-up and the timed ops, before the checks
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN if isinstance(wl, Cli) else resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None and isinstance(wl, Cli):
            wl.probe_imports()
        failed, problems, quality = wl.check(records, outputs)
    finally:
        if isinstance(wl, Cli):
            wl.close()
    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps({
        "ready": ready,
        "latencies_ms": latencies,
        "elapsed_s": elapsed,
        "failed": failed,
        "problems": problems,
        "quality": quality,
        "peak_rss_mb": peak_kb / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
