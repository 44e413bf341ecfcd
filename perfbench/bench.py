"""One benchmark run: set up (timed, repeated), measure untraced, check the
outputs, and with tracing on replay the same work traced for the per-layer
metrics. Prints a detail line (environment stamp, the workload's own named
metrics, checks) and, last, the result line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import sparselm
from tracing import LAYERS, NullTracer, SpanIndex, Tracer
from workloads import DOWNSTREAM, EVAL, SETUP, STEP, WORKLOADS, step_ref_ratio

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ref_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# tensor ops counted and timed per step (grad mode) and per eval example (no_grad)
STEP_OPS = ("matmul", "add", "mul", "softmax", "layer_norm", "gelu", "cross_entropy",
            "embedding", "narrow", "reshape", "transpose")
EVAL_OPS = ("matmul", "add", "mul", "softmax", "layer_norm", "gelu", "embedding",
            "inject_rows", "narrow", "reshape", "transpose")

# per-layer metric -> spans whose mean duration it reports, the unit span
# they must lie in, and the scale
MEAN_SPANS = {
    "model.forward_ms": (("model.forward_logits",), STEP, 1e3),
    "model.eval_forward_ms": (("model.forward_logits",), EVAL, 1e3),
    "sparsity.build_masks_ms": (("sparsity.build_masks",), SETUP, 1e3),
    "sparsity.apply_masks_ms": (("sparsity.apply_masks",), SETUP, 1e3),
    "sparsity.mask_gradients_ms": (("sparsity.mask_gradients",), STEP, 1e3),
    "sparsity.densify_ms": (("sparsity.densify",), DOWNSTREAM, 1e3),
    "training.adamw_ms": (("training.adamw_step",), STEP, 1e3),
    "checkpoint.save_ms": (("training.save_train_state",), STEP, 1e3),
    "checkpoint.load_ms": (("training.load_model_checkpoint",), DOWNSTREAM, 1e3),
    "finetune.metric_s": (("evaluation.metric",), DOWNSTREAM, 1.0),
    "evaluation.score_labels_ms": (("evaluation.score_labels",), EVAL, 1e3),
    "evaluation.generate_labels_ms": (("evaluation.generate_labels",), DOWNSTREAM, 1e3),
    "data.learn_bpe_s": (("data.learn_bpe",), SETUP, 1.0),
    "data.encode_s": (("data.Vocab.encode",), SETUP, 1.0),
    "data.load_vocab_ms": (("data.load_vocab",), SETUP, 1e3),
    "data.pack_ms": (("data.pack_sequences",), SETUP, 1e3),
}

# exact counts: each must read the same in every repeat of its unit
COUNT_METRICS = ("tensor.tape_nodes_per_forward", "evaluation.forwards_per_example",
                 "data.merges", *(f"tensor.op_calls.{k}" for k in STEP_OPS),
                 *(f"tensor.eval_op_calls.{k}" for k in EVAL_OPS))
# checkpoint.bytes is also exact; it is part of the outputs the traced replay must repeat

PER_LAYER_UNITS = {
    "tensor.backward_ms": "ms",
    **{f"tensor.op_calls.{k}": "count" for k in STEP_OPS},
    **{f"tensor.op_ms.{k}": "ms" for k in STEP_OPS},
    **{f"tensor.eval_op_calls.{k}": "count" for k in EVAL_OPS},
    **{f"tensor.eval_op_ms.{k}": "ms" for k in EVAL_OPS},
    "tensor.tape_nodes_per_forward": "count",
    "model.achieved_gflops": "GFLOP/s",
    "model.matmul_peak_gflops": "GFLOP/s",
    **{name: ("s" if name.endswith("_s") else "ms") for name in MEAN_SPANS},
    "training.step_self_ms": "ms",
    "checkpoint.bytes": "count",
    "finetune.epoch_s": "s",
    "finetune.batch_ms": "ms",
    "evaluation.forwards_per_example": "count",
    "data.merges": "count",
    "data.distinct_words": "count",
    **{f"{layer}.self_frac": "fraction" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
}


def import_seconds(first, repeats=4):
    """Median import time: this process's own import plus `repeats` fresh
    interpreters importing the same modules with the same settings."""
    paths = [os.path.dirname(os.path.dirname(sparselm.__file__)),
             os.path.dirname(os.path.abspath(__file__))]
    probe = ("import sys, time; sys.path[:0] = %r; t = time.perf_counter(); import bench; "
             "print(time.perf_counter() - t)" % paths)
    times = [first]
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    """HEAD of the checkout, or "unknown" when it is not its own git tree."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    top, commit = out.split()
    return commit if os.path.realpath(top) == os.path.realpath(root) else "unknown"


def environment(threads, nproc, seed, root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads, "nproc": nproc,
            "cpu": cpu_model(), "seed": seed, "commit": git_commit(root)}


def mean_ms(per_unit):
    return 1000.0 * statistics.fmean(per_unit) if per_unit else 0.0


def per_layer_metrics(workload, index, ctx, untraced, traced):
    counts, values = workload.layer_metrics(ctx, untraced, index)
    duration = index.duration
    for prefix, ops, unit in (("op", STEP_OPS, STEP), ("eval_op", EVAL_OPS, EVAL)):
        for kind in ops:
            name = f"tensor.{kind}"
            counts[f"tensor.{prefix}_calls.{kind}"] = index.per_unit(name, lambda i: 1, unit)
            values[f"tensor.{prefix}_ms.{kind}"] = mean_ms(index.per_unit(name, duration, unit))
    for metric_name, (span_names, unit, scale) in MEAN_SPANS.items():
        found = [i for n in span_names for i in index.named(n, within=unit)]
        values[metric_name] = (scale * statistics.fmean(duration(i) for i in found)
                               if found else 0.0)
    updates = len(index.named("training.adamw_step", within=STEP))
    backward = sum(duration(i) for i in index.named("tensor.backward", within=STEP))
    values["tensor.backward_ms"] = 1000.0 * backward / updates if updates else 0.0
    steps = index.named("training.train_steps", within=STEP)
    values["training.step_self_ms"] = mean_ms([index.self_time(i) for i in steps])
    total = sum(duration(i) for i, s in enumerate(index.spans) if s[4] == -1)
    for layer, seconds in index.layer_self_seconds().items():
        values[f"{layer}.self_frac"] = seconds / total
    values["trace.overhead_frac"] = step_ref_ratio(traced) / step_ref_ratio(untraced) - 1.0

    steady = {name: len(set(seen)) == 1 for name, seen in counts.items() if seen}
    for name in COUNT_METRICS:
        seen = counts.get(name) or [0]
        values[name] = float(seen[0])
    return values, steady


def run(name, seed, seconds, trace, threads, nproc, import_s, root):
    workload = WORKLOADS[name]
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        import_s = import_seconds(import_s)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = workload.setup(seed, tmp, NullTracer())
            setup_times.append(time.perf_counter() - t0)
        # a traced run measures a shorter untraced run, then replays it traced
        untraced = workload.measure(ctx, seconds / 3 if trace else seconds, None, NullTracer())
        rss = peak_rss_mb()
        checks = workload.checks(ctx, untraced)
        if trace:
            tracer = Tracer(run_id=f"{name}-seed{seed}")
            with tracer.installed(sparselm):
                with tracer.span(SETUP):
                    traced_ctx = workload.setup(seed, tmp, tracer)
                traced = workload.measure(traced_ctx, seconds, untraced.attempted, tracer)
            checks["traced_outputs_identical"] = traced.fingerprint == untraced.fingerprint
            index = SpanIndex(tracer.spans)
            layer_values, steady = per_layer_metrics(workload, index, traced_ctx, untraced, traced)
            checks.update({f"count_steady:{k}": ok for k, ok in steady.items()})
            tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"))
            # a layer the workload does not exercise reads 0
            metrics = {k: {"value": layer_values.get(k, 0.0), "unit": u}
                       for k, u in PER_LAYER_UNITS.items()}
        else:
            values = {"setup_s": import_s + statistics.median(setup_times),
                      "step_ref_ratio": step_ref_ratio(untraced),
                      "peak_rss_mb": rss}
            metrics = {k: {"value": float(values[k]), "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = untraced.failed + sum(not ok for ok in checks.values())
    attempted = untraced.attempted
    detail = {
        "workload": name,
        "environment": environment(threads, nproc, seed, root),
        "metrics": {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s",
                        "n": len(setup_times), "import_s": import_s},
            **untraced.detail,
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "failed_frac": {"value": failed / attempted, "unit": "failed/attempted"},
        },
        "checks": checks,
    }
    with open(os.path.join(out_dir, f"result-{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1
