"""Command-line entry point.

Subcommands: encode, decode, group, evaluate, score, simulate-binpick,
filter-jacquard, gradcheck, selftest.  Machine-readable JSON goes to
stdout, human diagnostics to stderr.  Exit codes: 0 success, 1 usage
error, 2 data or validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .bundle import DimensionError, read_bundle, read_gktb, write_bundle
from .checks import run_gradcheck_battery, run_selftest
from .decoder import TOP_K, decode_bundle
from .depth import GripperModel2D, read_depth_gktb, score_grasps
from .encoder import EncoderConfig, ideal_bundle
from .evaluator import MatchCriteria, evaluate_dataset
from .geometry import grasp_to_record, read_annotation_groups, read_annotations
from .grouper import GroupingThresholds, group
from .binpick import make_scene, oracle_detector, pipeline_detector, run_bin_picking
from .dataset import classify_annotation, coverage_ratio
from .profiles import PROFILES, get_profile


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
    names = [f.name for f in dataclasses.fields(GroupingThresholds)]
    overrides = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    return dataclasses.replace(profile.thresholds, **overrides), overrides


def _profile_and_bundle(args):
    """The ``--profile`` and the ``--bundle``, which must agree on the class count."""
    profile = get_profile(args.profile)
    bundle = read_bundle(args.bundle)
    if bundle.num_classes != profile.num_classes:
        raise ValueError(
            f"bundle has {bundle.num_classes} classes but profile "
            f"{profile.name} expects {profile.num_classes}"
        )
    return profile, bundle


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
    profile, bundle = _profile_and_bundle(args)
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
    profile, bundle = _profile_and_bundle(args)
    thresholds, overrides = _thresholds(args, profile)
    grasps = group(bundle, thresholds)
    for g in grasps:
        rec = grasp_to_record(g)
        if args.image_id is not None:
            rec["image_id"] = args.image_id
        _emit(rec)
    _diag({"profile": profile.name, "k": TOP_K, "overrides": overrides, "grasps": len(grasps)})
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
    try:
        spec = json.loads(Path(args.gripper).read_text()) if args.gripper else {}
    except RecursionError as exc:
        raise ValueError(f"gripper spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValueError(f"gripper spec must be a JSON object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - {f.name for f in dataclasses.fields(GripperModel2D)})
    if unknown:
        raise ValueError(f"unknown gripper spec keys {unknown}")
    model = GripperModel2D(**spec)
    for g, score in score_grasps(grasps, depth_image, model):
        rec = grasp_to_record(g)
        rec["scores"] = score.to_dict()
        _emit(rec)
    return 0


def _cmd_simulate(args):
    profile = get_profile(args.profile)
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
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
        if [arr.shape[0] for _, arr in planes] != [1]:
            raise DimensionError(f"mask {mask_path} must hold one plane of count 1, "
                                 f"got {[(name, arr.shape[0]) for name, arr in planes]}")
        mask = planes[0][1][0]
        bad = np.setdiff1d(np.unique(mask), [0.0, 1.0])
        if bad.size:
            raise ValueError(f"mask {mask_path} holds non-binary values {bad[:4].tolist()}")
        decision = classify_annotation(coverage_ratio(grasps, mask))
        records.append({"imageId": image_id, **vars(decision)})
    Path(args.out).write_text(json.dumps(records, indent=2) + "\n")
    for rec in records:
        _emit(rec)
    return 0


def _cmd_gradcheck(args):
    report = run_gradcheck_battery(seed=args.seed, points=args.points, tolerance=args.tolerance)
    _emit(report)
    return 0 if report["passed"] else 2


def _cmd_selftest(args):
    report = run_selftest(seed=args.seed)
    _emit(report)
    return 0 if report["passed"] else 2


def build_parser():
    parser = _Parser(prog="graspkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="render annotations into an ideal GKTB bundle")
    p.add_argument("--annotations", required=True)
    p.add_argument("--profile", required=True, choices=list(PROFILES))
    p.add_argument("--image-size", required=True, help="input image dims as HxW, e.g. 256x256")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="extract top-k keypoints from a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--profile", required=True, choices=list(PROFILES))
    p.add_argument("--k", type=int, default=TOP_K)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("group", help="group a bundle into ranked grasps")
    p.add_argument("--bundle", required=True)
    p.add_argument("--profile", required=True, choices=list(PROFILES))
    p.add_argument("--top", type=int, default=None, dest="max_output", metavar="TOP")
    p.add_argument("--rho-embed", type=float, default=None)
    p.add_argument("--rho-cen", type=float, default=None)
    p.add_argument("--tau-orient", type=float, default=None)
    p.add_argument("--image-id", default=None)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("evaluate", help="rectangle-metric evaluation of predictions")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--profile", required=True, choices=list(PROFILES))
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
    p.add_argument("--profile", default="cornell", choices=list(PROFILES))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("filter-jacquard", help="coverage-ratio annotation filtering")
    p.add_argument("--annotations", required=True, help="directory of <id>.jsonl files")
    p.add_argument("--masks", required=True, help="directory of <id>.gktb mask files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter_jacquard)

    p = sub.add_parser("gradcheck", help="finite-difference validation of loss gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:  # from argparse, or from an option a command parses itself
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
