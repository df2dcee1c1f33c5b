"""Benchmark of the sanet package: end-to-end metrics and a traced per-layer run.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload infer-san10-pairwise --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload is a closed loop with one caller in one process: the next op
starts only when the previous one returns.  OpenBLAS keeps its default
thread count.  Inputs are generated from ``--seed``; no dataset is read.

  train-tiny-pairwise   one SGD step of san-tiny (pairwise subtraction,
                        relative position), batch 64 at 32x32, on seeded
                        blobs through augment_batch.  The only workload that
                        records a tape, runs backward and the optimizer.
  infer-san10-pairwise  models.predict of san10 on one seeded 224x224 image,
                        eval mode under no_grad: the paper's model at paper
                        resolution, forward only, large maps, batch 1.
  infer-resnet26        the same loop on resnet26.  It never calls the
                        attention operators or slot_aggregate, so an
                        attention-only change should leave it unchanged.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics of the traced ones
(see tracer.py), the trace's coverage and its overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any check fails.
Result records and span files are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (needs HERE on sys.path)

WORKLOADS = ("train-tiny-pairwise", "infer-san10-pairwise", "infer-resnet26")
MODEL = {
    "train-tiny-pairwise": "san-tiny",
    "infer-san10-pairwise": "san10",
    "infer-resnet26": "resnet26",
}
# "tiny" exists for the benchmark's own tests; results are only comparable at "full".
SIZES = {"full": {"batch": 64, "side": 224}, "tiny": {"batch": 8, "side": 32}}

SETUP_REPEATS = 9
# At least ten latencies beyond the reported tail percentile, with margin;
# training also needs LOSS_STEP steps for loss_end.
MIN_TIMED_OPS = 20
LOSS_STEP = 20
INPUT_POOL = 4  # inference inputs cycle, so every input is seen again
# SAN and ResNet residual units start as the exact identity (expand.w and
# conv3.kernel are zero), which would leave attention out of the logits.
# Those tensors get this share of their Kaiming bound.  With eval-mode BN
# on default statistics, activations grow geometrically through san10's
# residual stack: at 1e-3 of the bound attention moves the logits by 40 to
# 5000, at 3e-3 they reach 1e20 or overflow, at 1e-4 they stay finite and
# move by 2 to 4 (san10, seeds 0-2).
WEIGHT_SCALE = 1e-4
ORACLE_CROP = 13
ORACLE_TOL = 1e-5  # max abs error over max abs reference, float32
COVERAGE_SHARE = 0.05  # uncovered trace time allowed per op (median)

END_TO_END = (
    ("images_per_s", "img/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("gmac_s", "GMAC/s"),
    ("peak_mib", "MiB"),
    ("setup_s", "s"),
)
# Reported on the human-readable lines only: loss_end applies to training
# alone, and error_rate is carried by "attempted"/"failed".
EXTRA_END_TO_END = (("loss_end", "nats"), ("error_rate", "fraction"))

BLOCK_NAMES = (
    "stem", "stage1.transition", "stage1.block1", "stage1.block2",
    "stage2.transition", "stage2.block1", "stage2.block2",
    "stage3.transition", "stage3.block1", "stage3.block2", "stage3.block3",
    "stage3.block4", "stage4.transition", "stage4.block1", "stage4.block2",
    "stage4.block3", "stage4.block4", "stage5.transition", "stage5.block1",
    "bn_out", "classifier",
)
TRAIN_BLOCK_NAMES = (
    "stem", "stage1.block1", "stage2.transition", "stage2.block1",
    "stage3.transition", "stage3.block1", "classifier",
)


def per_layer_metrics():
    out = []
    for p in tracer.REPORTED_PRIMITIVES:
        out += [(f"tensor.{p}.fwd_ms", "ms"), (f"tensor.{p}.bwd_ms", "ms"),
                (f"tensor.{p}.out_mib", "MiB"), (f"tensor.{p}.calls", "count")]
    out += [("tensor.backward.self_ms", "ms"), ("tensor.backward.nodes", "count")]
    for op in tracer.ATTENTION_OPS:
        out += [(f"attention.{op}.fwd_ms", "ms"), (f"attention.{op}.bwd_ms", "ms"),
                (f"attention.{op}.calls", "count")]
    for b in BLOCK_NAMES:
        out += [(f"blocks.{b}.fwd_ms", "ms"), (f"blocks.{b}.gmac_s", "GMAC/s")]
    out += [(f"blocks.{b}.bwd_ms", "ms") for b in TRAIN_BLOCK_NAMES]
    out += [(f"training.{p}_ms", "ms") for p in tracer.TRAINING_PHASES]
    out += [("data.augment_batch.ms", "ms"), ("models.build_model.s", "s"),
            ("models.predict.first_ms", "ms"), ("trace.uncovered_ms", "ms"),
            ("trace.overhead_pct", "%")]
    return out


PER_LAYER = per_layer_metrics()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def import_sanet():
    """Import the package from this checkout's ``src/``, afresh each call."""
    for name in [m for m in sys.modules if m == "sanet" or m.startswith("sanet.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sanet
    import sanet.accounting
    import sanet.blocks
    import sanet.data
    import sanet.models
    import sanet.reference
    import sanet.training

    if Path(sanet.__file__).resolve().parent != SRC / "sanet":
        raise ImportError(f"sanet imported from {sanet.__file__}, not from {SRC}")
    return sanet


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    blas, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit(),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def named_units(sn, model):
    """(CostReport name, module) for every residual unit of a built model."""
    units = [("stem", model.stem)]
    for si, stage in enumerate(model.stages):
        bi = 0
        for item in stage:
            if isinstance(item, sn.blocks.Transition):
                units.append((f"stage{si + 1}.transition", item))
            else:
                bi += 1
                units.append((f"stage{si + 1}.block{bi}", item))
    if hasattr(model, "bn_out"):
        units.append(("bn_out", model.bn_out))
    units.append(("classifier", model.classifier))
    return units


def prepare_weights(sn, model, rng):
    """Give the zero-initialized final map of every residual unit small values."""
    for stage in model.stages:
        for unit in stage:
            if isinstance(unit, sn.blocks.SelfAttentionBlock):
                w = unit.expand.w
            elif isinstance(unit, sn.blocks.Bottleneck):
                w = unit.conv3.kernel
            else:
                continue
            bound = WEIGHT_SCALE * np.sqrt(6.0 / w.shape[1])
            w.data = rng.uniform(-bound, bound, size=w.shape).astype(w.dtype)


class Inference:
    def __init__(self, sn, model_name, seed, size):
        self.sn = sn
        self.spec = sn.models.named_spec(model_name)
        self.side = size["side"]
        self.images_per_op = 1
        t = time.perf_counter()
        self.model = sn.models.build_model(self.spec, seed=seed)
        self.build_s = time.perf_counter() - t
        rng = np.random.default_rng([seed, 1])
        prepare_weights(sn, self.model, rng)
        self.images = rng.standard_normal(
            (INPUT_POOL, 1, 3, self.side, self.side), dtype=np.float32)
        self.labels = rng.integers(0, self.spec.classes, INPUT_POOL)
        self.seen = {}

    def op(self, i, tr):
        self.logits = self.sn.models.predict(self.model, self.images[i % INPUT_POOL], batch_size=1)

    def check(self, i):
        logits, key = self.logits, i % INPUT_POOL
        loss = cross_entropy(logits, self.labels[[key]])
        ok = bool(np.isfinite(logits).all()) and np.isfinite(loss)
        if key in self.seen:
            ok = ok and np.array_equal(self.seen[key], logits)
        else:
            self.seen[key] = logits
        return ok


class Training:
    def __init__(self, sn, model_name, seed, size):
        self.sn = sn
        self.spec = sn.models.named_spec(model_name)
        self.side = self.spec.input_hw
        self.batch = self.images_per_op = size["batch"]
        t = time.perf_counter()
        self.model = sn.models.build_model(self.spec, seed=seed)
        self.build_s = time.perf_counter() - t
        self.data = sn.data.make_blobs(seed=seed)
        cfg = sn.training.TrainConfig()
        self.lr, self.smoothing = cfg.base_lr, cfg.label_smoothing
        self.optimizer = sn.training.SGD(self.model.parameters(), cfg.momentum, cfg.weight_decay)
        self.shuffle_rng = np.random.default_rng([seed, 2])
        self.augment_rng = np.random.default_rng([seed, 3])
        self.order = np.empty(0, dtype=np.int64)
        self.losses = []
        self.model.train()

    def op(self, i, tr):
        sn = self.sn
        if len(self.order) < self.batch:
            self.order = np.concatenate(
                [self.order, self.shuffle_rng.permutation(len(self.data.train_labels))])
        idx, self.order = self.order[: self.batch], self.order[self.batch:]
        with tr.span("training.data"):
            batch = sn.data.augment_batch(self.data.train_images[idx], self.augment_rng)
            x = sn.tensor.Tensor(self.data.normalize(batch))
        with tr.span("training.forward"):
            logits = self.model(x)
        with tr.span("training.loss"):
            loss = sn.training.cross_entropy_smoothed(
                logits, self.data.train_labels[idx], self.smoothing)
        with tr.span("training.backward"):
            self.model.zero_grad()
            loss.backward()
        with tr.span("training.optimizer"):
            self.optimizer.step(self.lr)
        # keep arrays only: holding the tensors would keep the whole tape alive
        self.logits, self.loss = logits.data, float(loss.data)

    def check(self, i):
        self.losses.append(self.loss)
        return bool(np.isfinite(self.logits).all()) and np.isfinite(self.loss)


def make_workload(sn, name, seed, size):
    kind = Training if name.startswith("train-") else Inference
    return kind(sn, MODEL[name], seed, size)


def cross_entropy(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


# ---------------------------------------------------------------------------
# independent correctness check
# ---------------------------------------------------------------------------


def oracle_target(sn, model):
    """The operator checked against the naive loops: the first attention of
    stage 2 for SAN, the stride-1 3x3 convolution of stage3.block2 for ResNet."""
    if isinstance(model, sn.models.ResNetwork):
        return model.stages[2][1].conv2
    block = next(u for u in model.stages[1] if isinstance(u, sn.blocks.SelfAttentionBlock))
    return block.attention


def capture(module, store):
    """Record the first input and output of ``module`` (an instance override),
    with a copy of its parameters as they were, before any optimizer step."""
    forward = module.forward

    def recording(x):
        out = forward(x)
        if not store:
            store["x"], store["out"] = x.data.copy(), out.data.copy()
            store["module"] = copy.deepcopy(module)
        return out

    module.forward = recording
    return lambda: delattr(module, "forward")


def oracle_check(sn, store, rng):
    """Compare the operator's real output on a crop against the naive loops.

    Along an axis the crop does not cover whole, only positions whose
    footprint lies inside the crop are compared.  Relative position
    features are differences of coordinates normalized to the map, so the
    reference gets the position map rescaled from the map to the crop.
    """
    x, out, module = store["x"], store["out"], store["module"]
    n, _, h, w = x.shape
    b = int(rng.integers(n))
    ch, cw = min(ORACLE_CROP, h), min(ORACLE_CROP, w)
    r0, c0 = int(rng.integers(h - ch + 1)), int(rng.integers(w - cw + 1))
    crop = np.ascontiguousarray(x[b : b + 1, :, r0 : r0 + ch, c0 : c0 + cw])
    if isinstance(module, sn.attention.Conv2d):
        if module.stride != 1:
            raise ValueError("oracle target must be a stride-1 convolution")
        k, kind = module.k, "conv2d"
        bias = None if module.bias is None else module.bias.data
        ref = sn.reference.naive_conv2d(crop, module.kernel.data, bias)
    else:
        cfg = module.cfg
        if cfg.family != "pairwise" or cfg.position == "absolute":
            raise ValueError("oracle target must be pairwise attention without absolute position")
        k, kind = cfg.footprint, "pairwise attention"
        params = module
        if cfg.position == "relative":
            rescale = [(ch - 1) / (h - 1) if h > 1 else 1.0, (cw - 1) / (w - 1) if w > 1 else 1.0]
            w_pos = SimpleNamespace(data=(module.w_pos.data * np.float32(rescale)).astype(x.dtype))
            params = SimpleNamespace(cfg=cfg, dims=module.dims, w_query=module.w_query,
                                     b_query=module.b_query, w_key=module.w_key,
                                     b_key=module.b_key, w_value=module.w_value,
                                     mlp=module.mlp, w_pos=w_pos)
        ref = sn.reference.naive_pairwise_attention(crop, params)

    pad = (k - 1) // 2
    rl, rh = (0, ch) if ch == h else (pad, ch - pad)
    cl, chh = (0, cw) if cw == w else (pad, cw - pad)
    want = ref[0, :, rl:rh, cl:chh]
    got = out[b, :, r0 + rl : r0 + rh, c0 + cl : c0 + chh]
    scale = float(np.abs(want).max())
    err = float(np.abs(got - want).max()) / scale if scale > 0 else float("inf")
    ok = scale > 0 and err <= ORACLE_TOL
    detail = (f"{kind} k={k} on image {b} rows {r0}:{r0 + ch} cols {c0}:{c0 + cw} "
              f"({rh - rl}x{chh - cl} positions): max rel err {err:.2e} (tol {ORACLE_TOL:.0e})")
    return ok, detail


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.step = 0

    def op(self, tr=tracer.NullTracer(), root=None):
        """Run one op and its per-op checks; returns the op's latency in s."""
        i = self.step
        t0 = time.perf_counter()
        self.wl.op(i, tr)
        dt = time.perf_counter() - t0
        if root is not None:
            tr.end(root)
        self.step += 1
        self.attempted += 1
        if not self.wl.check(i):
            self.failed += 1
        return dt


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    s = sorted(values)
    rank = len(s) - 10
    return s[rank - 1], 100.0 * rank / len(s), len(s)


def setup(name, seed, size):
    """Import the package, build the model and generate the inputs; timed."""
    t0 = time.perf_counter()
    sn = import_sanet()
    wl = make_workload(sn, name, seed, size)
    return sn, wl, time.perf_counter() - t0


def layer_metrics(trc, roots, macs, images):
    """Median over traced ops of every per-layer metric, plus the uncovered share."""
    stops = roots[1:] + [len(trc.spans)]
    per_op = [tracer.op_metrics(trc.spans, r, e) for r, e in zip(roots, stops)]
    layer = {name: statistics.median(m.get(name, 0.0) for m in per_op) for name, _ in PER_LAYER}
    for b in BLOCK_NAMES:
        fwd = layer[f"blocks.{b}.fwd_ms"]
        layer[f"blocks.{b}.gmac_s"] = macs.get(b, 0) * images / fwd / 1e6 if fwd else 0.0
    share = statistics.median(m["trace.uncovered_ms"] / m["op_ms"] for m in per_op)
    op_ms = statistics.median(m["op_ms"] for m in per_op)
    return layer, share, op_ms


def run(args):
    size = SIZES[args.size]
    sn, wl, setup_time = setup(args.workload, args.seed, size)
    setup_times, build_times = [setup_time], [wl.build_s]

    def repeat_setup():
        # a fresh import and build whose objects are dropped; the run keeps
        # using ``sn`` and ``wl``, which hold their own module references
        _, extra, t = setup(args.workload, args.seed, size)
        setup_times.append(t)
        build_times.append(extra.build_s)

    env = environment(args.seed)

    units = named_units(sn, wl.model)
    report = sn.accounting.cost_report(wl.spec, input_hw=wl.side)
    if [u[0] for u in units] != [b.name for b in report.breakdown]:
        raise RuntimeError("unit walk disagrees with the CostReport layer names")
    gmac_per_image = report.macs / 1e9
    runner = Runner(wl)

    # 1. first (cold) op, recording the oracle operator's real activation
    store = {}
    restore = capture(oracle_target(sn, wl.model), store)
    first_ms = runner.op() * 1e3
    restore()
    oracle_ok, oracle_detail = oracle_check(sn, store, np.random.default_rng([args.seed, 4]))
    runner.failed += not oracle_ok
    del store

    # 2. traced-memory peak over one extra op
    tracemalloc.start()
    runner.op()
    peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    # 3. warm-up, then the timed closed loop; with tracing, every other op is
    # traced.  The set-up repeats are spread over the loop, between ops, so
    # their median does not hinge on one moment's load on the machine.
    runner.op()
    trc = tracer.Tracer()
    plain, traced, roots = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or len(plain) < MIN_TIMED_OPS
           or (args.trace and len(traced) < MIN_TIMED_OPS)):
        due = len(setup_times) * args.seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() - start >= due:
            repeat_setup()
        if args.trace and len(plain) > len(traced):
            trc.install(sn, units)
            roots.append(trc.begin("op"))
            traced.append(runner.op(trc, roots[-1]))
            trc.uninstall()
        else:
            plain.append(runner.op())
    if isinstance(wl, Training):
        while runner.step < LOSS_STEP:
            plain.append(runner.op())
    while len(setup_times) < SETUP_REPEATS:
        repeat_setup()
    setup_s, build_s = statistics.median(setup_times), statistics.median(build_times)

    images = wl.images_per_op
    ips = images * len(plain) / sum(plain)
    lat_ms = [t * 1e3 for t in plain]
    tail_ms, tail_pct, n = tail(lat_ms)
    e2e = {
        "images_per_s": ips,
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_tail": tail_ms,
        "gmac_s": gmac_per_image * ips,
        "peak_mib": peak_mib,
        "setup_s": setup_s,
    }
    notes = {
        "op_ms_tail": f"p{tail_pct:.1f} of n={n} ops, 10 beyond it",
        "gmac_s": f"{gmac_per_image:.5f} GMAC/image forward",
        "setup_s": f"median of {SETUP_REPEATS}; build_model {build_s:.4f} s",
    }
    trace_lines = []
    if args.trace:
        layer, share, op_ms = layer_metrics(trc, roots, {b.name: b.macs for b in report.breakdown},
                                            images)
        layer["models.build_model.s"] = build_s
        layer["models.predict.first_ms"] = first_ms if isinstance(wl, Inference) else 0.0
        traced_ips = images * len(traced) / sum(traced)
        layer["trace.overhead_pct"] = 100.0 * (ips - traced_ips) / ips
        covered = share <= COVERAGE_SHARE
        runner.failed += not covered
        trace_lines = [
            f"trace overhead: untraced {ips:.4f} img/s, traced {traced_ips:.4f} img/s "
            f"({layer['trace.overhead_pct']:+.2f}%)",
            f"trace uncovered: {layer['trace.uncovered_ms']:.3f} ms of {op_ms:.3f} ms per op "
            f"({100 * share:.2f}%, limit {100 * COVERAGE_SHARE:.0f}%) {'ok' if covered else 'FAILED'}",
        ] + [f"  {name:<40}{layer[name]:>14.4f} {unit}" for name, unit in PER_LAYER if layer[name]]

    if isinstance(wl, Training):
        e2e["loss_end"], notes["loss_end"] = wl.losses[LOSS_STEP - 1], f"step {LOSS_STEP}"
    e2e["error_rate"] = runner.failed / runner.attempted
    notes["error_rate"] = f"{runner.failed} of {runner.attempted} ops failed a check"
    lines = [
        f"workload {args.workload}  model {wl.spec.name}  seed {args.seed}  size {args.size}  "
        f"seconds {args.seconds}  trace {args.trace}",
        "env " + "  ".join(f"{k} {v}" for k, v in env.items()),
    ]
    for name, unit in END_TO_END + EXTRA_END_TO_END:
        value = f"{e2e[name]:.4f}" if name in e2e else "n/a"
        note = notes.get(name, "training only" if name == "loss_end" else "")
        lines.append(f"{name:<14}{value:>14} {unit}" + (f"  ({note})" if note else ""))
    lines.append(f"oracle {'ok' if oracle_ok else 'FAILED'}: {oracle_detail}")

    correct = runner.failed == 0
    record = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
              "trace": args.trace, "env": env, "end_to_end": e2e, "latencies_ms": lat_ms,
              "correct": correct, "attempted": runner.attempted, "failed": runner.failed}
    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        record["per_layer"] = layer
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "spans": tracer.spans_to_json(trc.spans)}))
    print("\n".join(lines + trace_lines))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "sanet").is_dir():
        print(f"error: package sources not found at {SRC / 'sanet'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
