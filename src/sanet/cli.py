"""Command-line interface.

Subcommands: count, gradcheck, oracle, train, eval, robust, attack.
Every run writes a ``manifest.json`` (resolved configuration, package
version, argv) beside its outputs, and all outputs are plain JSON/CSV
with no timestamps, so reruns with identical arguments reproduce
identical files.

Exit codes: 0 success; 1 verification failure or diverged training; 2
usage, config or file-system error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .accounting import cost_report, verify_against_runtime
from .data import load_dataset
from .gradcheck import run_sweep
from .models import (
    MODEL_NAMES,
    CheckpointError,
    build_model,
    load_checkpoint,
    load_spec_file,
    named_spec,
    spec_to_dict,
)
from .reference import run_oracle_sweep
from .robustness import (
    MANIPULATIONS,
    AttackConfig,
    attack_report,
    check_attack_count,
    format_manipulation_table,
    manipulation_report,
)
from .tensor import ConfigError, UsageError
from .training import TrainConfig, TrainingDiverged, evaluate, train

DATA_ROOT_ENV = "SANET_DATA_ROOT"


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--model", default="san10", help=f"one of {', '.join(MODEL_NAMES)}")
    p.add_argument("--spec-file", default=None, help="JSON model spec (overrides --model)")
    p.add_argument("--attention", default=None,
                   choices=["pairwise", "patchwise", "scalar"], dest="family")
    p.add_argument("--relation", default=None)
    p.add_argument("--footprint", type=int, default=None)
    p.add_argument("--gamma-depth", type=int, default=None, dest="mlp_depth",
                   help="linear layers in the attention-weight perceptron (1-3)")
    p.add_argument("--r1", type=int, default=None)
    p.add_argument("--r2", type=int, default=None)
    p.add_argument("--share", type=int, default=None)
    p.add_argument("--position-mode", default=None,
                   choices=["none", "absolute", "relative"], dest="position")


def _resolve_spec(args, classes: int | None = None):
    if args.spec_file is not None:
        spec = load_spec_file(args.spec_file)
        if classes is not None and spec.classes != classes:
            raise ConfigError(
                f"spec file declares {spec.classes} classes, dataset has {classes}"
            )
        return spec
    return named_spec(
        args.model, family=args.family, relation=args.relation,
        footprint=args.footprint, mlp_depth=args.mlp_depth,
        r1=args.r1, r2=args.r2, share=args.share, position=args.position,
        classes=classes,
    )


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_manifest(out_dir, command, config):
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "argv": sys.argv[1:],
        "version": __version__,
        "config": config,
    })


def cmd_count(args) -> int:
    spec = _resolve_spec(args)
    out = args.out or f"runs/count-{spec.name}"
    _emit_manifest(out, "count", {"spec": spec_to_dict(spec), "input_hw": spec.input_hw})
    report = cost_report(spec)
    payload = report.to_dict()
    if args.verify_runtime:
        payload["runtime_check"] = verify_against_runtime(spec)
        if not payload["runtime_check"]["matches"]:
            _write_json(os.path.join(out, "cost.json"), payload)
            print("symbolic/runtime parameter mismatch", file=sys.stderr)
            return 1
    _write_json(os.path.join(out, "cost.json"), payload)
    with open(os.path.join(out, "cost.txt"), "w") as fh:
        fh.write(report.to_table() + "\n")
    print(f"{spec.name}: params {payload['params']:,} ({payload['params'] / 1e6:.1f}M)  "
          f"macs {payload['macs']:,} ({payload['macs'] / 1e9:.1f}G)  -> {out}")
    return 0


def cmd_gradcheck(args) -> int:
    out = args.out or "runs/gradcheck"
    _emit_manifest(out, "gradcheck", {
        "kind": args.kind, "relation": args.relation, "position": args.position,
        "tol": args.tol, "seed": args.seed,
    })
    results = run_sweep(kind=args.kind, relation=args.relation,
                        position=args.position, tol=args.tol, seed=args.seed)
    if not results:
        raise ConfigError("gradcheck filter matched no cases")
    payload = {"tol": args.tol, "cases": [r.to_dict() for r in results],
               "passed": all(r.passed for r in results)}
    _write_json(os.path.join(out, "gradcheck.json"), payload)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<34} max rel err {r.max_rel_error:.3e}")
    if not payload["passed"]:
        worst = max(results, key=lambda r: r.max_rel_error)
        print(f"gradient check failed: {worst.name} at {worst.max_rel_error:.3e}",
              file=sys.stderr)
        return 1
    return 0


def cmd_oracle(args) -> int:
    out = args.out or "runs/oracle"
    _emit_manifest(out, "oracle", {
        "kind": args.kind, "relation": args.relation, "cases": args.cases,
        "tol": args.tol, "seed": args.seed,
    })
    results = run_oracle_sweep(kind=args.kind, relation=args.relation,
                               cases=args.cases, tol=args.tol, seed=args.seed)
    if not results:
        raise ConfigError("oracle filter matched no cases")
    payload = {"tol": args.tol, "cases": results,
               "passed": all(r["passed"] for r in results)}
    _write_json(os.path.join(out, "oracle.json"), payload)
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']:<28} "
              f"max abs diff {r['max_abs_diff']:.3e} over {r['cases']} cases")
    if not payload["passed"]:
        print("oracle comparison failed", file=sys.stderr)
        return 1
    return 0


def _resolve_data(args):
    root = args.data_root or os.environ.get(DATA_ROOT_ENV)
    return load_dataset(args.data, root=root, limit=args.limit, seed=args.seed)


def cmd_train(args) -> int:
    dataset = _resolve_data(args)
    spec = _resolve_spec(args, classes=dataset.classes)
    config = TrainConfig(
        epochs=args.epochs, base_lr=args.lr, momentum=args.momentum,
        weight_decay=args.weight_decay, label_smoothing=args.label_smoothing,
        batch_size=args.batch_size, seed=args.seed,
    )
    out = args.out or f"runs/train-{spec.name}-{dataset.name}"
    _emit_manifest(out, "train", {
        "spec": spec_to_dict(spec), "train": config.to_dict(),
        "data": {"kind": args.data, "limit": args.limit, "seed": args.seed},
    })
    model = build_model(spec, seed=args.seed)
    report = train(model, dataset, config, run_dir=out, log=print)
    _write_json(os.path.join(out, "report.json"), report.to_dict())
    print(f"best val top-1 {report.best_top1:.4f} (epoch {report.best_epoch}) -> {out}")
    return 0


def _load_model_for_eval(args):
    if args.checkpoint is None:
        raise ConfigError("this command needs --checkpoint")
    return load_checkpoint(args.checkpoint)


def cmd_eval(args) -> int:
    dataset = _resolve_data(args)
    model = _load_model_for_eval(args)
    out = args.out or "runs/eval"
    _emit_manifest(out, "eval", {"checkpoint": args.checkpoint,
                                 "data": {"kind": args.data, "limit": args.limit,
                                          "seed": args.seed}})
    metrics = evaluate(model, dataset)
    _write_json(os.path.join(out, "eval.json"), metrics)
    print(f"top1 {metrics['top1']:.4f}  top5 {metrics['top5']:.4f} -> {out}")
    return 0


def cmd_robust(args) -> int:
    dataset = _resolve_data(args)
    model = _load_model_for_eval(args)
    manipulations = MANIPULATIONS if args.manipulation is None else (args.manipulation,)
    out = args.out or "runs/robust"
    _emit_manifest(out, "robust", {
        "checkpoint": args.checkpoint, "manipulations": list(manipulations),
        "data": {"kind": args.data, "limit": args.limit, "seed": args.seed},
    })
    rows = manipulation_report(model, dataset, manipulations=manipulations)
    _write_json(os.path.join(out, "robust.json"), {"rows": rows})
    with open(os.path.join(out, "robust.csv"), "w") as fh:
        fh.write("manipulation,top1,top5,drop1,drop5\n")
        for r in rows:
            fh.write(f"{r['manipulation']},{r['top1']:.6f},{r['top5']:.6f},"
                     f"{r['drop1']:.6f},{r['drop5']:.6f}\n")
    table = format_manipulation_table(rows)
    with open(os.path.join(out, "robust.txt"), "w") as fh:
        fh.write(table + "\n")
    print(table)
    return 0


def cmd_attack(args) -> int:
    dataset = _resolve_data(args)
    model = _load_model_for_eval(args)
    cfg = AttackConfig(eps=args.eps, step=args.step, iters=args.iters, seed=args.seed)
    check_attack_count(args.count)
    out = args.out or f"runs/attack-n{cfg.iters}"
    _emit_manifest(out, "attack", {
        "checkpoint": args.checkpoint,
        "attack": {"eps": cfg.eps, "step": cfg.step, "iters": cfg.iters, "seed": cfg.seed,
                   "count": args.count},
        "data": {"kind": args.data, "limit": args.limit, "seed": args.seed},
    })
    report = attack_report(model, dataset, cfg, count=args.count)
    _write_json(os.path.join(out, "attack.json"), report)
    print(f"eps {cfg.eps} step {cfg.step} iters {cfg.iters}: "
          f"success rate {report['success_rate']:.3f}  "
          f"top1 {report['top1_under_attack']:.3f} (clean {report['clean_top1']:.3f}) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sanet", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory")
        if data:
            p.add_argument("--data", default="blobs", choices=["cifar10", "blobs"])
            p.add_argument("--data-root", default=None,
                           help=f"dataset root (or ${DATA_ROOT_ENV})")
            p.add_argument("--limit", type=int, default=None,
                           help="cap the training subset size")

    p = sub.add_parser("count", help="parameter and MAC accounting")
    _add_model_args(p)
    p.add_argument("--verify-runtime", action="store_true",
                   help="cross-check symbolic counts against a built model")
    common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--kind", default=None,
                   choices=["pairwise", "patchwise", "scalar", "conv", "block"])
    p.add_argument("--relation", default=None)
    p.add_argument("--position-mode", default=None, dest="position",
                   choices=["none", "absolute", "relative"])
    p.add_argument("--tol", type=float, default=1e-4)
    common(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("oracle", help="vectorized vs naive-loop comparison")
    p.add_argument("--kind", default=None,
                   choices=["pairwise", "patchwise", "scalar", "conv"])
    p.add_argument("--relation", default=None)
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("train", help="train a model")
    _add_model_args(p)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--label-smoothing", type=float, default=0.1)
    common(p, data=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", default=None)
    common(p, data=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("robust", help="zero-shot manipulation evaluation")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--manipulation", default=None, choices=list(MANIPULATIONS))
    common(p, data=True)
    p.set_defaults(fn=cmd_robust)

    p = sub.add_parser("attack", help="targeted PGD attack")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--eps", type=float, default=8.0)
    p.add_argument("--step", type=float, default=4.0)
    p.add_argument("--iters", type=int, default=2)
    p.add_argument("--count", type=int, default=500)
    common(p, data=True)
    p.set_defaults(fn=cmd_attack)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, UsageError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
