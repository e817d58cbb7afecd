"""In-memory span tracer and the per-layer report computed from its spans.

The tracer wraps graspkit's public functions at the module attribute each
caller looks them up by, so the library itself is not modified.  A wrapped
call is recorded only inside a timed op; calls made during set-up and output
checks pass straight through.  Spans are written out as JSON lines when the run
ends and the report is computed from that file alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

now = time.perf_counter


# Counters read a wrapped function's return value (and arguments) and
# return {count name: value}; a ratio's value is (numerator, denominator).
def _count(name, fn):
    return lambda result, args: {name: fn(result, args)}


def _scored(result, args):
    failed = sum(1 for _, score in result if not score.valid)
    return {"depth.grasps_scored": len(result), "depth.failed_ratio": (failed, len(result))}


# (module, attribute path, span name, counter).  The module is where the
# caller looks the function up, which is not always the module defining it:
# grouper imports decode_bundle, evaluator imports rotated_iou and binpick
# imports score_grasps.
WRAPPED = (
    ("graspkit.bundle", "write_bundle", "bundle.write_bundle", _count("bundle.bytes", lambda r, a: r)),
    ("graspkit.bundle", "read_bundle", "bundle.read_bundle",
     _count("bundle.bytes", lambda r, a: len(a[0].getbuffer()))),
    ("graspkit.dataset", "coverage_ratio", "dataset.coverage_ratio", None),
    ("graspkit.encoder", "ideal_bundle", "encoder.ideal_bundle", None),
    ("graspkit.encoder", "encode_targets", "encoder.encode_targets",
     _count("encoder.kept_ratio", lambda r, a: (len(r[1]), len(a[0])))),
    ("graspkit.grouper", "group", "grouper.group", _count("grouper.grasps", lambda r, a: len(r))),
    ("graspkit.grouper", "group_candidates", "grouper.group_candidates", None),
    ("graspkit.grouper", "decode_bundle", "decoder.decode_bundle", None),
    ("graspkit.decoder", "select_grasp_keypoints", "decoder.select_grasp_keypoints",
     _count("decoder.keypoints", lambda r, a: len(r))),
    ("graspkit.decoder", "suppress_non_maxima", "decoder.suppress_non_maxima", None),
    ("graspkit.grouper", "extract_center_scores", "grouper.extract_center_scores",
     _count("grouper.pairs", lambda r, a: r.size)),
    ("graspkit.grouper", "filter_pairs", "grouper.filter_pairs", _count("grouper.pairs_passed", lambda r, a: len(r))),
    ("graspkit.grouper", "orientation_filter", "grouper.orientation_filter",
     _count("grouper.kept", lambda r, a: len(r))),
    ("graspkit.evaluator", "evaluate_dataset", "evaluator.evaluate_dataset", None),
    ("graspkit.evaluator", "rotated_iou", "geometry.rotated_iou", None),
    ("graspkit.binpick", "run_bin_picking", "binpick.run_bin_picking",
     _count("binpick.success_ratio", lambda r, a: (r.successes, len(r.attempts)))),
    ("graspkit.binpick", "SyntheticScene.render", "binpick.render", None),
    ("graspkit.binpick", "score_grasps", "depth.score_grasps", _scored),
    ("graspkit.depth", "gripper_regions", "depth.gripper_regions", None),
)

# Spans the benchmark records itself around each CLI subprocess.
CLI_SPANS = ("cli.import", "cli.encode", "cli.group", "cli.evaluate")

# Counts reported as sum(numerator) / sum(denominator) instead of a mean.
RATIOS = {"encoder.kept_ratio", "binpick.success_ratio", "depth.failed_ratio"}


class Tracer:
    """Spans of the current op, kept in memory until :meth:`write`.

    A span is ``[name, start, end, parent index, op id, continued]``, where
    ``continued`` marks a segment that carries on a call split at an op
    boundary; counts are ``(name, value, op id)``.
    """

    def __init__(self):
        self.spans = []
        self.counts = []
        self.stack = []
        self.op = None

    def begin(self, name, continued=False):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, now(), 0.0, parent, self.op, continued])

    def end(self):
        self.spans[self.stack.pop()][2] = now()

    def begin_op(self, op):
        self.op = op
        self.begin("op")

    def end_op(self):
        self.end()
        self.op = None

    def split_op(self, op):
        """End the current op now and start op ``op``.  Spans still open
        (the bin-picking loop) continue as new segments inside the new op,
        so each op's self times add up to that op's duration."""
        names = [self.spans[i][0] for i in self.stack]
        while self.stack:
            self.end()
        self.op = op
        self.begin("op")
        for name in names[1:]:
            self.begin(name, continued=True)

    def count(self, name, value):
        if self.op is not None:
            self.counts.append((name, value, self.op))

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                for count_name, value in counter(result, args).items():
                    self.count(count_name, value)
            return result

        return traced

    def install(self):
        """Replace every function in WRAPPED by its traced wrapper."""
        for module_name, path, name, counter in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, counter))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, continued in self.spans:
                rec = {"span": name, "start": start, "end": end, "parent": parent, "op": op, "continued": continued}
                fh.write(json.dumps(rec) + "\n")
            for name, value, op in self.counts:
                fh.write(json.dumps({"count": name, "value": value, "op": op}) + "\n")


SPAN_NAMES = [name for _, _, name, _ in WRAPPED]
COUNT_NAMES = ["decoder.keypoints", "grouper.pairs", "grouper.pairs_passed", "grouper.kept", "grouper.grasps",
               "grouper.keep_ratio", "encoder.kept_ratio", "bundle.bytes", "depth.grasps_scored",
               "depth.failed_ratio", "binpick.success_ratio"]


def report(path):
    """Per-layer figures from a written span file.

    Returns ``(metrics, layers, op_ms)``: per-layer metrics by name (all but
    the trace overhead), each span's total self ms and call count for the
    share table, and every op's duration in ms.
    """
    spans, counts = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            (spans if "span" in rec else counts).append(rec)
    child_ms = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] >= 0:
            child_ms[rec["parent"]] += 1000.0 * (rec["end"] - rec["start"])
    op_ms = {}
    self_ms = {name: {} for name in SPAN_NAMES}
    cli_ms = {name: [] for name in CLI_SPANS}
    calls = dict.fromkeys(SPAN_NAMES, 0)
    for rec, children in zip(spans, child_ms):
        ms = 1000.0 * (rec["end"] - rec["start"])
        if rec["span"] == "op":
            op_ms[rec["op"]] = op_ms.get(rec["op"], 0.0) + ms
        elif rec["span"] in cli_ms:
            cli_ms[rec["span"]].append(ms - children)
        else:
            per_op = self_ms[rec["span"]]
            per_op[rec["op"]] = per_op.get(rec["op"], 0.0) + ms - children
            calls[rec["span"]] += not rec["continued"]
    ops = sorted(op_ms)
    metrics, layers = {}, {}
    for name, per_op in self_ms.items():
        metrics[name + ".self_ms"] = statistics.median([per_op.get(op, 0.0) for op in ops]) if ops else 0.0
        metrics[name + ".calls"] = calls[name] / max(len(ops), 1)
        layers[name] = (sum(per_op.values()), calls[name])
    # a CLI span is one whole subprocess: report its median duration per call
    for name, series in cli_ms.items():
        metrics[name + ".ms"] = statistics.median(series) if series else 0.0
        layers[name] = (sum(series), len(series))
    values = {name: [] for name in COUNT_NAMES}
    for rec in counts:
        values[rec["count"]].append(rec["value"])
    for name, series in values.items():
        if name in RATIOS:
            den = sum(v[1] for v in series)
            metrics[name] = sum(v[0] for v in series) / den if den else 0.0
        elif name != "grouper.keep_ratio":
            metrics[name] = statistics.fmean(series) if series else 0.0
    pairs = sum(values["grouper.pairs"])
    metrics["grouper.keep_ratio"] = sum(values["grouper.kept"]) / pairs if pairs else 0.0
    return metrics, layers, [op_ms[op] for op in ops]
