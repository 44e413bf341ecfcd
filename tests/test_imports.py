import ast
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import sparselm
from sparselm import evaluation as E
from sparselm import finetune as FT
from sparselm import model as M

MODULES = sorted(Path(sparselm.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
# public names that nothing reads yet, each with its first planned reader:
# `global_sparsity` reports per-layer sparsity in the planned `inspect` command
UNREAD_ALLOWED = {"global_sparsity"}


def unused_imports(source):
    """Names bound by the module-level imports of `source` that nothing in
    the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nfrom a import b, c\nsys.exit(c)\n") == \
        [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_level_imports(source):
    """Lines of the imports of `source` that sit inside a function or method body."""
    return sorted({node.lineno for func in ast.walk(ast.parse(source))
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_function_level_import_is_found():
    source = ("import os\n\ndef f():\n    import sys\n\n"
              "class C:\n    def m(self):\n        def g():\n            from a import b\n")
    assert function_level_imports(source) == [4, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # an import cycle shows up as an import deferred into a function body
    assert function_level_imports(path.read_text(encoding="utf-8")) == []


def public_definitions(source):
    """(line, name) of each public module-level function and class of
    `source`, and of each public method and property of those classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found += [(n.lineno, n.name) for n in node.body if isinstance(n, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
    return sorted((line, name) for line, name in found if not name.startswith("_"))


def names_read(source):
    """Every name that `source` loads, bare (`f`) or as an attribute (`x.f`)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_unread_public_name_is_found():
    source = ("def f():\n    pass\n\ndef _g():\n    pass\n\n"
              "class C:\n    def m(self):\n        return self.n()\n\n"
              "    @property\n    def n(self):\n        return f\n")
    defined = public_definitions(source)
    assert defined == [(1, "f"), (7, "C"), (8, "m"), (12, "n")]
    assert [d for d in defined if d[1] not in names_read(source)] == [(7, "C"), (8, "m")]


def test_every_public_name_has_a_reader():
    assert PERFBENCH, "perfbench/ not found next to tests/"
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in MODULES + PERFBENCH))
    unread = [f"{path.name}:{line} {name}" for path in MODULES
              for line, name in public_definitions(path.read_text(encoding="utf-8"))
              if name not in read and name not in UNREAD_ALLOWED]
    assert unread == []


@functools.cache
def perfbench_module(name):
    """perfbench/<name>.py as a module, loaded once from its file as it is
    (registered first: its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", next(p for p in PERFBENCH if p.stem == name))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_spans_perfbench_reads_stay_direct_children():
    # perfbench times a fine-tune batch from a `finetune.sequence_loss` span to
    # the next `training.adamw_step`, both direct children of
    # `finetune.finetune_dense`, and counts `finetune.prompt_forward` children of
    # `evaluation.score_labels`; a public helper in between would empty them
    tracing = perfbench_module("tracing")
    for layer in tracing.LAYERS:  # `Tracer.installed` wraps each of these
        importlib.import_module(f"sparselm.{layer}")
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_heads=2, d_head=8, vocab_size=16,
                        context_window=16)
    examples = [FT.TaskExample(source=[10 + i % 4, 11], target=[5 + i % 2],
                               labels=("ab"[i % 2],)) for i in range(6)]
    space = E.LabelSpace(labels=("a", "b"), token_ids=((5,), (6,)))
    job = FT.FinetuneJob(stages=[FT.FinetuneStage("s", examples, examples[:3])], epochs=2,
                         batch_size=4, peak_lr=1e-3, prompt_length=2, virtual_ids=(2, 3))
    tracer = tracing.Tracer("test")
    with tracer.installed(sparselm):
        result = FT.finetune_dense(M.init_params(cfg, seed=0), cfg, job,
                                   tracer.wrap("evaluation.metric",
                                               E.bind_accuracy_metric(cfg, space)))
        E.predict_label(result.params, cfg, result.prompt, examples[0].source, space)
    index = tracing.SpanIndex(tracer.spans)
    read = ("finetune.sequence_loss", "training.adamw_step")
    epoch = [*read, *read, read[0]]  # two batches, then the val loss
    for run in index.named("finetune.finetune_dense"):
        names = [index.spans[c][1] for c in index.children[run]]
        assert [name for name in names if name in read] == epoch * job.epochs
    scores = index.named("evaluation.score_labels")
    assert len(scores) > len(index.named("evaluation.metric")) > 0
    for i in scores:
        children = [index.spans[c][1] for c in index.children[i]]
        assert children.count("finetune.prompt_forward") == 1


@pytest.mark.parametrize("name", ["pretrain-small", "pretrain-wide"])
def test_the_benchmark_workloads_set_up_and_pass_their_checks(name, tmp_path):
    # a library change that breaks a call perfbench makes would otherwise show
    # only as a failed benchmark run: each workload's set-up (data, masks, a
    # train state and its warm-up step) and its output checks (pruned weights
    # at 0.0, a train checkpoint round trip, the tokenizer's) run as they are
    workload = perfbench_module("workloads").WORKLOADS[name]
    ctx = workload.setup(1, str(tmp_path), perfbench_module("tracing").NullTracer())
    checks = workload.checks(ctx, None)
    assert {"pruned_coordinates_zero", "train_state_roundtrip"} <= checks.keys()
    assert all(checks.values()), checks


def test_the_benchmark_downstream_stages_pass_their_checks(tmp_path):
    # save, load and densify an s=0.75 model, fine-tune it with a soft prompt,
    # score and generate labels, as the benchmark's pretrain-small run does
    downstream = perfbench_module("workloads").Downstream()
    out = downstream.run(1, str(tmp_path), perfbench_module("tracing").NullTracer())
    checks = downstream.checks(out)
    assert checks.keys() == {"model_checkpoint_roundtrip", "densify_equals_mask_times_weights",
                             "eval_accuracy_floor"}
    assert all(checks.values()), checks
