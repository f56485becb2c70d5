"""Spans around the package's public names, recorded from outside the package.

`Recorder.install()` replaces module functions, class methods and the
`RunConfig.fingerprint` property with timing wrappers, and `uninstall()`
puts the originals back. A module that imported a name directly (`cli.py`
binds `build_graph`, `training.py` binds `apply_diffusion`, ...) holds its
own reference, so every `roadrisk` module binding the original object is
patched too.

Each span is (name, start, end, parent, self seconds, tag). Spans stay in
memory and are written once, by `dump`. Autodiff ops nest (`mean_` calls
`sum_` and `scale`), so an op's time is its self time: duration minus the
time covered by its child spans. Backward time per op comes from wrapping
the closure each op hands to `Tape.add`, tagged with the innermost op span
open at that moment.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

FUNCTIONS = {
    "ingest": ["parse_accident_csv", "filter_region", "write_records", "read_records",
               "aggregate_temporal"],
    "graph": ["assign_to_nodes", "build_adjacency", "build_graph", "save_graph", "load_graph"],
    "features": ["build_risk_tensor", "save_tensor", "load_tensor"],
    "diffusion": ["apply_diffusion"],
    "training": ["prepare_training_data", "batch_loss", "eval_loss", "train"],
    "riskmap": ["classify_zones", "export_geojson"],
    "validation": ["framework_validation_report"],
    "metrics": ["horizon_report"],
    "autodiff": ["add", "sub", "neg", "mul", "scale", "matmul", "matmul_sorted", "transpose",
                 "reshape", "concat", "relu", "abs_", "sum_", "mean_", "softmax_rows",
                 "layer_norm", "conv1d", "dropout"],
}
METHODS = [
    ("training", "TrainingData", "window", "training.window"),
    ("training", "Adam", "step", "training.adam_step"),
    ("autodiff", "Tape", "backward", "training.backward"),
    ("model", "RiskForecaster", "forward", "model.forward"),
    ("model", "RiskForecaster", "encode", "model.encode"),
    ("model", "RiskForecaster", "decode", "model.decode"),
    ("model", "RiskForecaster", "head", "model.head"),
    ("model", "RiskForecaster", "predict", "model.predict"),
]
MB = 1e6


def _nbytes(x) -> int:
    data = getattr(x, "data", x)
    return int(getattr(data, "nbytes", 0))


def _shape(x) -> tuple:
    return tuple(getattr(getattr(x, "data", x), "shape", ()))


class Recorder:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.self_s: list[float] = []
        self.tag: list[str | None] = []
        self.values: dict[str, list[float]] = {}  # counts and computed bytes
        self._open: list[int] = []
        self._child: list[float] = []
        self._taping = False
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _begin(self, name: str, tag=None) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.tag.append(tag)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._open.append(idx)
        self._child.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        end = time.perf_counter()
        duration = end - self.start[idx]
        self.end[idx] = end
        self._open.pop()
        self.self_s[idx] = duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    def note(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(float(value))

    def wrap(self, name: str, fn, after=None, tag_taped: bool = False):
        """`fn` timed as span `name`; `after(args, result)` records values."""

        def wrapper(*args, **kwargs):
            idx = self._begin(name, "taped" if tag_taped and self._taping else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import roadrisk.cli  # noqa: F401  (loads every module of the package)
        from roadrisk import autodiff, config

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "roadrisk" or n.startswith("roadrisk.")) and m is not None]
        hooks = self._hooks()
        for modname, names in FUNCTIONS.items():
            module = sys.modules[f"roadrisk.{modname}"]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self.wrap(
                    f"{modname}.{fname}", original,
                    after=hooks.get(f"{modname}.{fname}"),
                    tag_taped=modname == "autodiff" or fname == "batch_loss",
                )
                if fname == "build_graph":
                    wrapped = self._peak_alloc(wrapped)
                for m in modules:
                    if m.__dict__.get(fname) is original:
                        self._set(m, fname, wrapped)
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"roadrisk.{modname}"], cls_name)
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr], after=hooks.get(name)))

        tape = autodiff.Tape
        original_add, original_enter, original_exit = tape.add, tape.__enter__, tape.__exit__

        def add(tape_self, step):
            op = self.name[self._open[-1]] if self._open else "autodiff.?"
            return original_add(tape_self, self.wrap(op + ".bwd", step))

        def enter(tape_self):
            out = original_enter(tape_self)
            self._taping = True
            return out

        def exit_(tape_self, *exc):
            self._taping = False
            return original_exit(tape_self, *exc)

        self._set(tape, "add", add)
        self._set(tape, "__enter__", enter)
        self._set(tape, "__exit__", exit_)
        fingerprint = config.RunConfig.__dict__["fingerprint"]
        self._set(config.RunConfig, "fingerprint",
                  property(self.wrap("config.fingerprint", fingerprint.fget)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _peak_alloc(self, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.note("graph.build_graph.peak_alloc_mb", tracemalloc.get_traced_memory()[1] / MB)
                tracemalloc.stop()

        return wrapper

    # -- computed quantities recorded at call boundaries -----------------
    def _hooks(self) -> dict:
        def parsed(args, out):
            records, rejects = out
            self.note("ingest.rows", len(records) + len(rejects))
            self.note("ingest.rejects", len(rejects))

        def graph_built(args, out):
            graph = out[0] if isinstance(out, tuple) else out
            self.note("graph.nodes", graph.n_nodes)
            self.note("graph.edges", graph.adjacency.nnz // 2)

        def terms(args, out):
            a, b = _shape(args[0]), _shape(args[1])
            size = 8 * b[-1]
            for dim in a:
                size *= dim
            self.note("autodiff.matmul_sorted.terms_mb", size / MB)

        def forwarded(args, out):
            log = args[0].attention_log
            self.note("model.attention_log_mb",
                      sum(_nbytes(e["weights"]) + _nbytes(e["mask"]) for e in log) / MB)

        def batch(args, out):
            if self._taping:
                self.note("training.taped_windows", len(args[2]))

        def backward(args, out):
            windows = self.values.get("training.taped_windows", [0])[-1]
            if windows:
                self.note("training.tape_steps_per_window", len(args[0]) / windows)

        return {
            "ingest.parse_accident_csv": parsed,
            "graph.build_graph": graph_built,
            "graph.load_graph": graph_built,
            "autodiff.matmul_sorted": terms,
            "model.forward": forwarded,
            "training.batch_loss": batch,
            "training.backward": backward,
        }

    # -- output -----------------------------------------------------------
    def spans(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "self_s": self.self_s, "tag": self.tag,
            "values": self.values,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans(), fh)


OPS = ["matmul", "matmul_sorted", "softmax_rows", "conv1d", "layer_norm", "mul"]
SECONDS_PER_JOB = [  # inclusive seconds, summed over one job's calls
    "ingest.parse_accident_csv", "ingest.filter_region", "ingest.write_records",
    "ingest.read_records", "ingest.aggregate_temporal", "graph.assign_to_nodes",
    "graph.build_adjacency", "graph.build_graph", "graph.save_graph", "graph.load_graph",
    "features.build_risk_tensor", "features.save_tensor", "features.load_tensor",
    "diffusion.apply_diffusion", "training.prepare_training_data",
    "validation.framework_validation_report",
]
MS_PER_CALL = [
    "training.window", "training.backward", "training.adam_step", "training.eval_loss",
    "model.encode", "model.decode", "model.head", "riskmap.classify_zones",
    "riskmap.export_geojson", "metrics.horizon_report",
]


def root_seconds(spans: dict) -> float:
    """Time covered by the spans that have no parent (they never overlap)."""
    return sum(e - s for s, e, p in zip(spans["start"], spans["end"], spans["parent"]) if p < 0)


def summarize(job: list[dict]) -> dict[str, float]:
    """Per-module metrics from the spans of one traced job.

    `job` holds one span dict per process that took part (one per CLI stage,
    or one for an in-process workload). A step is one `Tape.backward` call;
    op times are self times of calls made while a tape was recording.
    """
    total, calls, taped_self, taped_calls, taped_total, bwd = ({} for _ in range(6))
    values: dict[str, list[float]] = {}
    for spans in job:
        for name, s, e, own, tag in zip(spans["name"], spans["start"], spans["end"],
                                        spans["self_s"], spans["tag"]):
            if name.endswith(".bwd"):
                bwd[name[:-4]] = bwd.get(name[:-4], 0.0) + (e - s)
                continue
            total[name] = total.get(name, 0.0) + (e - s)
            calls[name] = calls.get(name, 0) + 1
            if tag == "taped":
                taped_self[name] = taped_self.get(name, 0.0) + own
                taped_total[name] = taped_total.get(name, 0.0) + (e - s)
                taped_calls[name] = taped_calls.get(name, 0) + 1
        for key, vals in spans["values"].items():
            values.setdefault(key, []).extend(vals)

    def ratio(a, b):
        return a / b if b else 0.0

    def largest(key):
        return max(values.get(key, [0.0]))

    steps = calls.get("training.backward", 0)
    windows = sum(values.get("training.taped_windows", []))
    out = {f"{name}.s": total.get(name, 0.0) for name in SECONDS_PER_JOB}
    out.update({f"{name}.ms": 1e3 * ratio(total.get(name, 0.0), calls.get(name, 0))
                for name in MS_PER_CALL})
    rows = largest("ingest.rows")
    out.update({
        "ingest.rows": rows,
        "ingest.rejects": sum(values.get("ingest.rejects", [])),
        "ingest.rows_per_s": ratio(rows, total.get("ingest.parse_accident_csv", 0.0)),
        "graph.nodes": largest("graph.nodes"),
        "graph.edges": largest("graph.edges"),
        "graph.build_graph.peak_alloc_mb": largest("graph.build_graph.peak_alloc_mb"),
        "training.batch_loss.ms": 1e3 * ratio(taped_total.get("training.batch_loss", 0.0),
                                              taped_calls.get("training.batch_loss", 0)),
        "training.step.ms": 1e3 * ratio(
            taped_total.get("training.batch_loss", 0.0) + total.get("training.backward", 0.0)
            + total.get("training.adam_step", 0.0), steps),
        "training.tape_steps_per_window": largest("training.tape_steps_per_window"),
        "model.attention_log_mb": largest("model.attention_log_mb"),
        "autodiff.matmul_sorted.terms_mb": largest("autodiff.matmul_sorted.terms_mb"),
        "config.fingerprint.calls": float(calls.get("config.fingerprint", 0)),
    })
    for op in OPS:
        name = f"autodiff.{op}"
        out[f"{name}.fwd_ms"] = 1e3 * ratio(taped_self.get(name, 0.0), steps)
        out[f"{name}.bwd_ms"] = 1e3 * ratio(bwd.get(name, 0.0), steps)
        out[f"{name}.calls"] = ratio(taped_calls.get(name, 0), windows)
    return out
