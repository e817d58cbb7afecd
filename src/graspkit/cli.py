"""Command-line entry point.

Subcommands: encode, decode, group, evaluate, score, simulate-binpick,
filter-jacquard, gradcheck, selftest.  Machine-readable JSON goes to
stdout, human diagnostics to stderr.  Exit codes: 0 success, 1 usage
error, 2 data or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import losses
from .bundle import read_bundle, read_gktb, write_bundle
from .decoder import decode_bundle
from .depth import GripperModel2D, read_depth_gktb, score_grasps
from .encoder import EncoderConfig, ideal_bundle
from .evaluator import MatchCriteria, evaluate_dataset
from .geometry import (
    OrientedRect,
    grasp_to_record,
    read_annotation_groups,
    read_annotations,
    rotated_iou,
)
from .grouper import GroupingThresholds, group
from .binpick import make_scene, oracle_detector, pipeline_detector, run_bin_picking
from .dataset import classify_annotation, coverage_ratio
from .profiles import get_profile


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(obj):
    print(json.dumps(obj))


def _diag(obj):
    print(json.dumps(obj), file=sys.stderr)


def _parse_size(text):
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise _UsageError(f"--image-size must look like 256x256, got {text!r}") from None


def _thresholds(args, profile):
    base = profile.thresholds
    overrides = {}
    if args.rho_embed is not None:
        overrides["rho_embed"] = args.rho_embed
    if getattr(args, "rho_cen", None) is not None:
        overrides["rho_cen"] = args.rho_cen
    if getattr(args, "tau_orient", None) is not None:
        overrides["tau_orient"] = args.tau_orient
    if getattr(args, "top", None) is not None:
        overrides["max_output"] = args.top
    thresholds = GroupingThresholds(
        rho_embed=overrides.get("rho_embed", base.rho_embed),
        rho_cen=overrides.get("rho_cen", base.rho_cen),
        tau_orient=overrides.get("tau_orient", base.tau_orient),
        max_output=overrides.get("max_output", base.max_output),
    )
    return thresholds, overrides


def _cmd_encode(args):
    profile = get_profile(args.profile)
    grasps = read_annotations(args.annotations)
    h, w = _parse_size(args.image_size)
    config = EncoderConfig(
        image_height=h,
        image_width=w,
        num_classes=profile.num_classes,
        downsample_ratio=profile.downsample_ratio,
    )
    bundle = ideal_bundle(grasps, config, seed=args.seed)
    nbytes = write_bundle(bundle, args.out)
    _emit(
        {
            "out": str(args.out),
            "bytes": nbytes,
            "grasps": len(grasps),
            "planes": [bundle.num_classes, bundle.height, bundle.width],
            "profile": profile.name,
            "seed": args.seed,
        }
    )
    return 0


def _cmd_decode(args):
    profile = get_profile(args.profile)
    bundle = read_bundle(args.bundle)
    if bundle.num_classes != profile.num_classes:
        raise ValueError(
            f"bundle has {bundle.num_classes} classes but profile "
            f"{profile.name} expects {profile.num_classes}"
        )
    left, right = decode_bundle(bundle, k=args.k)
    for kp in left + right:
        _emit(
            {
                "role": kp.role,
                "x": kp.x,
                "y": kp.y,
                "class": kp.class_index,
                "score": kp.score,
                "embedding": kp.embedding,
            }
        )
    _diag({"profile": profile.name, "k": args.k, "left": len(left), "right": len(right)})
    return 0


def _cmd_group(args):
    profile = get_profile(args.profile)
    bundle = read_bundle(args.bundle)
    if bundle.num_classes != profile.num_classes:
        raise ValueError(
            f"bundle has {bundle.num_classes} classes but profile "
            f"{profile.name} expects {profile.num_classes}"
        )
    thresholds, overrides = _thresholds(args, profile)
    grasps = group(bundle, thresholds, k=args.k)
    for g in grasps:
        rec = grasp_to_record(g)
        if args.image_id is not None:
            rec["image_id"] = args.image_id
        _emit(rec)
    _diag({"profile": profile.name, "k": args.k, "overrides": overrides, "grasps": len(grasps)})
    return 0


def _cmd_evaluate(args):
    profile = get_profile(args.profile)
    criteria = MatchCriteria(eval_height=profile.eval_height)
    preds = read_annotation_groups(args.pred)
    truths = read_annotation_groups(args.truth)
    report = evaluate_dataset(preds, truths, criteria, policy=args.policy)
    _emit(report.to_dict())
    return 0


def _cmd_score(args):
    grasps = read_annotations(args.grasps)
    if not grasps:
        raise ValueError(f"no grasps in {args.grasps}")
    depth_image = read_depth_gktb(args.depth, surface_mm=args.surface_depth)
    if args.gripper:
        spec = json.loads(Path(args.gripper).read_text())
        if not isinstance(spec, dict):
            raise ValueError(f"gripper spec must be a JSON object, got {type(spec).__name__}")
        model = GripperModel2D(
            finger_thickness_mm=spec.get("finger_thickness_mm", 17.0),
            max_open_mm=spec.get("max_open_mm", 200.0),
            finger_length_mm=spec.get("finger_length_mm", 40.0),
            pixels_per_mm=spec.get("pixels_per_mm", 1.0),
        )
    else:
        model = GripperModel2D()
    for g, score in score_grasps(grasps, depth_image, model):
        rec = grasp_to_record(g)
        rec["scores"] = score.to_dict()
        _emit(rec)
    return 0


def _cmd_simulate(args):
    profile = get_profile(args.profile)
    model = GripperModel2D()
    for trial in range(args.trials):
        seed = args.seed + trial
        scene = make_scene(seed, args.objects)
        if args.detector == "oracle":
            detector = oracle_detector(scene)
        else:
            detector = pipeline_detector(
                scene, profile.thresholds, num_classes=profile.num_classes, seed=seed
            )
        log = run_bin_picking(scene, detector, model)
        _emit(log.to_dict())
    return 0


def _cmd_filter_jacquard(args):
    ann_dir = Path(args.annotations)
    mask_dir = Path(args.masks)
    if not ann_dir.is_dir():
        raise ValueError(f"annotation directory {ann_dir} does not exist")
    if not mask_dir.is_dir():
        raise ValueError(f"mask directory {mask_dir} does not exist")
    records = []
    for ann_path in sorted(ann_dir.glob("*.jsonl")):
        image_id = ann_path.stem
        mask_path = mask_dir / f"{image_id}.gktb"
        if not mask_path.exists():
            raise ValueError(f"no mask file for image {image_id!r} (expected {mask_path})")
        grasps = read_annotations(ann_path)
        _, planes = read_gktb(mask_path)
        mask = planes[0][1][0]
        bad = np.setdiff1d(np.unique(mask), [0.0, 1.0])
        if bad.size:
            raise ValueError(f"mask {mask_path} holds non-binary values {bad[:4].tolist()}")
        ratio = coverage_ratio(grasps, mask)
        decision = classify_annotation(ratio)
        records.append({"imageId": image_id, "ratio": decision.ratio, "decision": decision.decision})
    Path(args.out).write_text(json.dumps(records, indent=2) + "\n")
    for rec in records:
        _emit(rec)
    return 0


def _random_smooth_detection_point(rng, shape):
    truth = rng.uniform(0.0, 0.9, size=shape)
    peaks = rng.random(size=shape) < 0.1
    truth[peaks] = 1.0
    pred = rng.uniform(0.05, 0.95, size=shape)
    return pred, truth


def run_gradcheck_battery(seed=0, points=100, step=1e-5, tolerance=1e-4):
    """Finite-difference validation of all five losses at random smooth points."""
    rng = np.random.default_rng(seed)
    results = {}

    worst = 0.0
    for _ in range(points):
        pred, truth = _random_smooth_detection_point(rng, (2, 4, 4))
        n = int(rng.integers(1, 5))
        report = losses.gradient_check(
            lambda x: losses.detection_loss(x, truth, n), pred, step=step, rel_tol=tolerance
        )
        worst = max(worst, report.max_error)
    results["detection"] = {"max_error": worst, "passed": worst < tolerance}

    worst = 0.0
    for _ in range(points):
        center_truth = rng.uniform(0.0, 0.9, size=(5, 5))
        center_truth[rng.integers(0, 5), rng.integers(0, 5)] = 1.0
        pred = rng.uniform(0.05, 0.95, size=(5, 5))
        report = losses.gradient_check(
            lambda x: losses.detection_loss(x, center_truth, 1), pred, step=step, rel_tol=tolerance
        )
        worst = max(worst, report.max_error)
    results["detection_center"] = {"max_error": worst, "passed": worst < tolerance}

    worst = 0.0
    for _ in range(points):
        truth_off = rng.random((6, 2))
        # stay >= 10*step away from the smooth-L1 kink at |d| = 1
        delta = rng.uniform(-0.9, 0.9, size=(6, 2))
        pred_off = truth_off + delta
        report = losses.gradient_check(
            lambda x: losses.offset_loss(x, truth_off), pred_off, step=step, rel_tol=tolerance
        )
        worst = max(worst, report.max_error)
    results["offset"] = {"max_error": worst, "passed": worst < tolerance}

    worst = 0.0
    for _ in range(points):
        pairs = rng.normal(0.0, 2.0, size=(5, 2))
        report = losses.gradient_check(losses.pull_loss, pairs, step=step, rel_tol=tolerance)
        worst = max(worst, report.max_error)
    results["pull"] = {"max_error": worst, "passed": worst < tolerance}

    worst = 0.0
    kept = 0
    while kept < points:
        pairs = rng.normal(0.0, 2.0, size=(4, 2))
        means = pairs.mean(axis=1)
        gaps = np.abs(means[:, None] - means[None, :])[~np.eye(4, dtype=bool)]
        # keep clear of the hinge kinks at gap 0 and gap 1
        if np.any(np.abs(gaps - 1.0) < 10 * step) or np.any(gaps < 10 * step):
            continue
        kept += 1
        report = losses.gradient_check(losses.push_loss, pairs, step=step, rel_tol=tolerance)
        worst = max(worst, report.max_error)
    results["push"] = {"max_error": worst, "passed": worst < tolerance}

    passed = all(entry["passed"] for entry in results.values())
    return {"seed": seed, "points": points, "step": step, "tolerance": tolerance,
            "losses": results, "passed": passed}


def _cmd_gradcheck(args):
    report = run_gradcheck_battery(
        seed=args.seed, points=args.points, step=args.step, tolerance=args.tolerance
    )
    _emit(report)
    return 0 if report["passed"] else 2


def run_selftest(seed=0):
    """Quick end-to-end health check: pipeline round-trip, gradients, format."""
    checks = []
    rng = np.random.default_rng(seed)

    recovered = 0
    expected = 0
    for trial in range(10):
        profile = get_profile("cornell" if trial % 2 == 0 else "ajd")
        config = EncoderConfig(228, 228, profile.num_classes, profile.downsample_ratio)
        grasps = _separated_grasps(rng, int(rng.integers(1, 6)))
        bundle = ideal_bundle(grasps, config, seed=int(rng.integers(0, 2**31)))
        found = group(bundle, profile.thresholds)
        expected += len(grasps)
        for g in grasps:
            rect = OrientedRect((g.x, g.y), g.w, 20.0, g.theta)
            for f in found:
                cand = OrientedRect((f.x, f.y), f.w, 20.0, f.theta)
                if rotated_iou(rect, cand) > 0.9:
                    recovered += 1
                    break
    checks.append(
        {"name": "pipeline-round-trip", "passed": recovered == expected,
         "detail": f"{recovered}/{expected} grasps recovered"}
    )

    grad = run_gradcheck_battery(seed=seed, points=20)
    checks.append(
        {"name": "gradient-check", "passed": grad["passed"],
         "detail": {k: v["max_error"] for k, v in grad["losses"].items()}}
    )

    import io

    fmt_ok = True
    for _ in range(10):
        bundle = _random_bundle(rng)
        buf = io.BytesIO()
        write_bundle(bundle, buf)
        buf.seek(0)
        if not read_bundle(buf).equals(bundle):
            fmt_ok = False
    checks.append({"name": "gktb-round-trip", "passed": fmt_ok, "detail": "10 random bundles"})

    return {"seed": seed, "checks": checks, "passed": all(c["passed"] for c in checks)}


def _separated_grasps(rng, n, image=228, grid=3):
    from .geometry import Grasp, wrap_angle

    cell = image // grid
    cells = rng.permutation(grid * grid)[:n]
    grasps = []
    for cellno in cells:
        r, c = divmod(int(cellno), grid)
        cx = c * cell + cell / 2 + float(rng.uniform(-4, 4))
        cy = r * cell + cell / 2 + float(rng.uniform(-4, 4))
        theta = wrap_angle(float(rng.uniform(-math.pi / 2, math.pi / 2)))
        w = float(rng.uniform(20, 36))
        grasps.append(Grasp(cx, cy, theta, w))
    return grasps


def _random_bundle(rng):
    from .bundle import HeatmapBundle

    c = int(rng.integers(1, 5))
    h = int(rng.integers(2, 12))
    w = int(rng.integers(2, 12))
    return HeatmapBundle(
        left=rng.random((c, h, w), dtype=np.float32),
        right=rng.random((c, h, w), dtype=np.float32),
        center=rng.random((h, w), dtype=np.float32),
        offsetL=rng.random((2, h, w), dtype=np.float32),
        offsetR=rng.random((2, h, w), dtype=np.float32),
        embedL=rng.normal(size=(h, w)).astype(np.float32),
        embedR=rng.normal(size=(h, w)).astype(np.float32),
        num_classes=c,
        downsample_ratio=int(rng.integers(1, 8)),
    )


def _cmd_selftest(args):
    report = run_selftest(seed=args.seed)
    _emit(report)
    return 0 if report["passed"] else 2


def build_parser():
    parser = _Parser(prog="graspkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="render annotations into an ideal GKTB bundle")
    p.add_argument("--annotations", required=True)
    p.add_argument("--profile", required=True, choices=["cornell", "ajd"])
    p.add_argument("--image-size", required=True, help="input image dims as HxW, e.g. 256x256")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="extract top-k keypoints from a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--profile", required=True, choices=["cornell", "ajd"])
    p.add_argument("--k", type=int, default=100)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("group", help="group a bundle into ranked grasps")
    p.add_argument("--bundle", required=True)
    p.add_argument("--profile", required=True, choices=["cornell", "ajd"])
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--rho-embed", type=float, default=None)
    p.add_argument("--rho-cen", type=float, default=None)
    p.add_argument("--tau-orient", type=float, default=None)
    p.add_argument("--image-id", default=None)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("evaluate", help="rectangle-metric evaluation of predictions")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--profile", required=True, choices=["cornell", "ajd"])
    p.add_argument("--policy", default="top1", choices=["top1", "topn"])
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("score", help="depth-based grasp quality scoring")
    p.add_argument("--grasps", required=True)
    p.add_argument("--depth", required=True, help="GKTB file with a 'depth' plane")
    p.add_argument("--gripper", default=None, help="JSON gripper model file")
    p.add_argument("--surface-depth", type=float, default=None)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("simulate-binpick", help="seeded synthetic bin-picking trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objects", type=int, default=5)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--detector", default="oracle", choices=["oracle", "pipeline"])
    p.add_argument("--profile", default="cornell", choices=["cornell", "ajd"])
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("filter-jacquard", help="coverage-ratio annotation filtering")
    p.add_argument("--annotations", required=True, help="directory of <id>.jsonl files")
    p.add_argument("--masks", required=True, help="directory of <id>.gktb mask files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter_jacquard)

    p = sub.add_parser("gradcheck", help="finite-difference validation of loss gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
