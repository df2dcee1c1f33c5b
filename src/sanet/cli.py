"""Command-line interface.

Subcommands: count, gradcheck, oracle, train, eval, robust, attack.
Every run writes a ``manifest.json`` (resolved configuration, package
version, argv) beside its outputs, and all outputs are plain JSON/CSV
with no timestamps, so reruns with identical arguments reproduce
identical files.  Every command validates its arguments, data,
checkpoint and model spec before it writes the manifest, so a rejected
invocation leaves no output directory.

Exit codes: 0 success; 1 verification failure, diverged training or
non-finite logits; 2 usage, config or file-system error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from functools import partial

from . import __version__
from .accounting import cost_report, verify_against_runtime
from .attention import FAMILIES, POSITION_MODES
from .data import load_dataset
from .gradcheck import DEFAULT_TOL, SWEEP_CASES, plan_sweep
from .models import (
    MODEL_NAMES,
    CheckpointError,
    NonFiniteLogits,
    build_model,
    load_checkpoint,
    load_spec_file,
    named_spec,
)
from .reference import DEFAULT_CASES, ORACLE_CASES, ORACLE_TOL, plan_oracle_sweep
from .robustness import (
    MANIPULATIONS,
    AttackConfig,
    attack_report,
    format_manipulation_table,
    manipulation_report,
)
from .tensor import ConfigError, UsageError
from .training import TrainConfig, TrainingDiverged, evaluate, train

DATA_ROOT_ENV = "SANET_DATA_ROOT"


# AttentionConfig field -> the flag that sets it and its argparse options, in --help order
_ATTENTION_FLAGS = {
    "family": ("--attention", {"choices": list(FAMILIES)}),
    "relation": ("--relation", {}), "footprint": ("--footprint", {"type": int}),
    "mlp_depth": ("--gamma-depth", {"type": int, "help": "linear layers in the "
                                    "attention-weight perceptron (1-3)"}),
    "r1": ("--r1", {"type": int}), "r2": ("--r2", {"type": int}), "share": ("--share", {"type": int}),
    "position": ("--position-mode", {"choices": list(POSITION_MODES)}),
}


def _resolve_spec(args, classes: int | None = None, side: int | None = None):
    overrides = {name: getattr(args, name) for name in _ATTENTION_FLAGS}
    if args.spec_file is not None:
        given = [_ATTENTION_FLAGS[name][0] for name, value in overrides.items() if value is not None]
        if given:
            raise ConfigError(f"--spec-file fixes the attention configuration, so "
                              f"{', '.join(given)} cannot be given with it")
        spec = load_spec_file(args.spec_file)
        if classes is not None:
            _check_data(spec, "spec file", classes, side)
        return spec
    spec = named_spec(args.model, classes=classes, **overrides)
    return spec if side is None else replace(spec, input_hw=side)


def _check_data(spec, source: str, classes: int, side: int):
    """Reject a spec, read from ``source``, that does not fit the data's classes and side."""
    if spec.classes != classes:
        raise ConfigError(f"{source} declares {spec.classes} classes, dataset has {classes}")
    if spec.input_hw != side:
        raise ConfigError(
            f"{source} declares input_hw {spec.input_hw}, dataset images are {side}x{side}"
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
    report = cost_report(spec)
    payload = report.to_dict()
    if args.verify_runtime:  # builds the model, so before the manifest
        payload["runtime_check"] = verify_against_runtime(spec)
    out = args.out or f"runs/count-{spec.name}"
    _emit_manifest(out, "count", {"spec": asdict(spec), "input_hw": spec.input_hw})
    _write_json(os.path.join(out, "cost.json"), payload)
    if args.verify_runtime and not payload["runtime_check"]["matches"]:
        print("symbolic/runtime parameter mismatch", file=sys.stderr)
        return 1
    with open(os.path.join(out, "cost.txt"), "w") as fh:
        fh.write(report.to_table() + "\n")
    print(f"{spec.name}: params {payload['params']:,} ({payload['params'] / 1e6:.1f}M)  "
          f"macs {payload['macs']:,} ({payload['macs'] / 1e9:.1f}G)  -> {out}")
    return 0


def _verify(args, command: str, config: dict, plan, line: str) -> int:
    """Shared body of ``gradcheck`` and ``oracle``: validate ``--tol`` and
    select the cases before the manifest, then run, write and report them."""
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ConfigError(f"tol must be finite and non-negative, got {args.tol}")
    checks = plan(tol=args.tol, seed=args.seed)
    out = args.out or f"runs/{command}"
    _emit_manifest(out, command, {**config, "tol": args.tol, "seed": args.seed})
    results = [check() for check in checks]
    passed = all(r["passed"] for r in results)
    _write_json(os.path.join(out, f"{command}.json"),
                {"tol": args.tol, "cases": results, "passed": passed})
    for r in results:
        print(("PASS  " if r["passed"] else "FAIL  ") + line.format(**r))
    if not passed:
        failed = ", ".join(r["name"] for r in results if not r["passed"])
        print(f"{command} failed: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_gradcheck(args) -> int:
    config = {"kind": args.kind, "relation": args.relation, "position": args.position}
    return _verify(args, "gradcheck", config, partial(plan_sweep, **config),
                   "{name:<34} max rel err {max_rel_error:.3e}")


def cmd_oracle(args) -> int:
    config = {"kind": args.kind, "relation": args.relation, "cases": args.cases}
    return _verify(args, "oracle", config, partial(plan_oracle_sweep, **config),
                   "{name:<28} max abs diff {max_abs_diff:.3e} over {cases} cases")


def _resolve_data(args):
    root = args.data_root or os.environ.get(DATA_ROOT_ENV)
    return load_dataset(args.data, root=root, limit=args.limit, seed=args.seed)


def cmd_train(args) -> int:
    dataset = _resolve_data(args)
    spec = _resolve_spec(args, dataset.classes, dataset.train_images.shape[-1])
    config = TrainConfig(
        epochs=args.epochs, base_lr=args.lr, momentum=args.momentum,
        weight_decay=args.weight_decay, label_smoothing=args.label_smoothing,
        batch_size=args.batch_size, seed=args.seed,
    )
    model = build_model(spec, seed=args.seed)
    out = args.out or f"runs/train-{spec.name}-{dataset.name}"
    _emit_manifest(out, "train", {
        "spec": asdict(spec), "train": asdict(config),
        "data": {"kind": args.data, "limit": args.limit, "seed": args.seed},
    })
    report = train(model, dataset, config, run_dir=out, log=print)
    _write_json(os.path.join(out, "report.json"), asdict(report))
    print(f"best val top-1 {report.best_top1:.4f} (epoch {report.best_epoch}) -> {out}")
    return 0


def _open_eval(args, command: str, default_out: str, **config):
    """Shared preamble of ``eval``, ``robust`` and ``attack``: load the data and
    checkpoint, check that they fit, then write the manifest.  Callers validate
    their config first."""
    dataset = _resolve_data(args)
    if args.checkpoint is None:
        raise ConfigError("this command needs --checkpoint")
    model = load_checkpoint(args.checkpoint)
    _check_data(model.spec, "checkpoint", dataset.classes, dataset.train_images.shape[-1])
    out = args.out or default_out
    _emit_manifest(out, command, {
        "checkpoint": args.checkpoint, **config,
        "data": {"kind": args.data, "limit": args.limit, "seed": args.seed},
    })
    return dataset, model, out


def cmd_eval(args) -> int:
    dataset, model, out = _open_eval(args, "eval", "runs/eval")
    metrics = evaluate(model, dataset)
    _write_json(os.path.join(out, "eval.json"), metrics)
    print(f"top1 {metrics['top1']:.4f}  top5 {metrics['top5']:.4f} -> {out}")
    return 0


def cmd_robust(args) -> int:
    manipulations = MANIPULATIONS if args.manipulation is None else (args.manipulation,)
    dataset, model, out = _open_eval(args, "robust", "runs/robust",
                                     manipulations=list(manipulations))
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
    cfg = AttackConfig(eps=args.eps, step=args.step, iters=args.iters, seed=args.seed,
                       count=args.count)
    dataset, model, out = _open_eval(args, "attack", f"runs/attack-n{cfg.iters}",
                                     attack=asdict(cfg))
    report = attack_report(model, dataset, cfg)
    _write_json(os.path.join(out, "attack.json"), report)
    print(f"eps {cfg.eps} step {cfg.step} iters {cfg.iters}: "
          f"success rate {report['success_rate']:.3f}  "
          f"top1 {report['top1_under_attack']:.3f} (clean {report['clean_top1']:.3f}) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sanet", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    @contextmanager
    def command(name, fn, help, model=False, checkpoint=False, data=False):
        """Add one subcommand.  The ``with`` body adds the command's own flags,
        after the model or checkpoint flags and before the shared ones."""
        p = sub.add_parser(name, help=help)
        if model:
            p.add_argument("--model", default="san10", help=f"one of {', '.join(MODEL_NAMES)}")
            p.add_argument("--spec-file", default=None, help="JSON model spec (overrides --model)")
            for name, (flag, options) in _ATTENTION_FLAGS.items():
                p.add_argument(flag, default=None, dest=name, **options)
        if checkpoint:
            p.add_argument("--checkpoint", default=None)
        yield p
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output directory")
        if data:
            p.add_argument("--data", default="blobs", choices=["cifar10", "blobs"])
            p.add_argument("--data-root", default=None,
                           help=f"dataset root (or ${DATA_ROOT_ENV})")
            p.add_argument("--limit", type=int, default=None,
                           help="cap the training subset size")
        p.set_defaults(fn=fn)

    with command("count", cmd_count, "parameter and MAC accounting", model=True) as p:
        p.add_argument("--verify-runtime", action="store_true",
                       help="cross-check symbolic counts against a built model")

    with command("gradcheck", cmd_gradcheck, "finite-difference gradient verification") as p:
        p.add_argument("--kind", default=None,
                       choices=list(dict.fromkeys(k for k, _, _ in SWEEP_CASES)))
        p.add_argument("--relation", default=None)
        p.add_argument("--position-mode", default=None, dest="position",
                       choices=list(POSITION_MODES))
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    with command("oracle", cmd_oracle, "vectorized vs naive-loop comparison") as p:
        p.add_argument("--kind", default=None,
                       choices=list(dict.fromkeys(k for k, _, _ in ORACLE_CASES)))
        p.add_argument("--relation", default=None)
        p.add_argument("--cases", type=int, default=DEFAULT_CASES)
        p.add_argument("--tol", type=float, default=ORACLE_TOL)

    with command("train", cmd_train, "train a model", model=True, data=True) as p:
        p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
        p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
        p.add_argument("--lr", type=float, default=TrainConfig.base_lr)
        p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
        p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
        p.add_argument("--label-smoothing", type=float, default=TrainConfig.label_smoothing)

    with command("eval", cmd_eval, "evaluate a checkpoint", checkpoint=True, data=True):
        pass

    with command("robust", cmd_robust, "zero-shot manipulation evaluation",
                 checkpoint=True, data=True) as p:
        p.add_argument("--manipulation", default=None, choices=list(MANIPULATIONS))

    with command("attack", cmd_attack, "targeted PGD attack", checkpoint=True, data=True) as p:
        p.add_argument("--eps", type=float, default=AttackConfig.eps)
        p.add_argument("--step", type=float, default=AttackConfig.step)
        p.add_argument("--iters", type=int, default=AttackConfig.iters)
        p.add_argument("--count", type=int, default=AttackConfig.count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
        return args.fn(args)
    except (ConfigError, UsageError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    except NonFiniteLogits as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
