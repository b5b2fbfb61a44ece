"""Span tracing around the program's public functions, installed from outside.

The program carries no instrumentation, so :func:`install` replaces the
public functions of each traced layer with wrappers, at the place each
caller looks them up (``fedmetaloc.nn.forward`` is what ``model`` calls;
``experiments.meta_test`` is the name ``experiments`` imported). A wrapper
records one span, ``(name, start, end, parent, megabytes)``, in memory and
calls the original unchanged, so a traced run computes the same outputs.
Spans are written once, when the phase ends.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

MB = 1e6


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, mb]
        self._stack: list[int] = []

    def wrap(self, name, fn, size_mb=None):
        """``fn`` with a span around every call.

        ``name`` is the span's name, or a function of the call's arguments
        that returns it; ``size_mb(args, result)`` gives the megabytes the
        call moved.
        """

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, 0.0]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if size_mb is not None:
                span[4] = size_mb(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _param_mb(params) -> float:
    return sum(np.asarray(v).nbytes for v in params.values()) / MB


def _files_mb(*paths: Path) -> float:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p)) / MB


def _part_namer(prefix: str, d: int, n: int, p: int):
    """Names a stack's span by the model part its (input, output) widths identify.

    The shared part maps d -> n and the mapper n -> p; of the two stacks whose
    other width is the task's AP count m, the encoder ends at d and the
    decoder starts there.
    """

    def name_of(args) -> str:
        layers = args[0] if prefix == "nn.forward" else args[0].layers
        widths = (layers[0].in_size, layers[-1].out_size)
        if widths == (d, n):
            part = "meta"
        elif widths == (n, p):
            part = "mapper"
        else:
            part = "encoder" if widths[1] == d else "decoder"
        return f"{prefix}.{part}"

    return name_of


def install(tracer: Tracer, layers: set[str], d: int, n: int, p: int) -> None:
    """Wrap the public functions of the given layers (module names)."""
    from fedmetaloc import experiments, federation, metrics, model, nn

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    if "nn" in layers:
        patch(nn, "forward", _part_namer("nn.forward", d, n, p))
        patch(nn, "backward", _part_namer("nn.backward", d, n, p))
        patch(nn, "adam_step", "nn.adam_step")
        patch(nn, "sgd_step", "nn.sgd_step")
        patch(nn, "export_params", "nn.param_copy", size_mb=lambda a, r: _param_mb(r))
        patch(nn, "assign_params", "nn.param_copy", size_mb=lambda a, r: _param_mb(a[1]))
    if "model" in layers:
        for attr in ("composite_loss", "train_step", "full_forward", "loss_value"):
            patch(model.ClientModel, attr, f"model.{attr}")
    if "federation" in layers:
        patch(federation, "client_local_train", "federation.client_local_train")
        patch(federation, "server_aggregate", "federation.server_aggregate")
        patch(federation.MetaModel, "broadcast", "federation.broadcast")
        patch(experiments, "meta_test", "federation.meta_test")
    if "experiments" in layers:
        for attr in ("cmd_preprocess", "cmd_meta_train", "cmd_meta_test", "cmd_theory_probe", "cmd_report"):
            patch(experiments, attr, f"experiments.{attr}")
    if "data" in layers:
        patch(experiments, "synth_environment", "data.synth_environment")
    if "preprocess" in layers:
        patch(experiments, "preprocess_dataset", "preprocess.preprocess_dataset")
    if "metrics" in layers:
        patch(metrics, "theta_grad_sq_norm", "metrics.theta_grad_sq_norm")
        patch(metrics, "flatten_parts", "metrics.flatten")
        patch(metrics, "flatten_grads", "metrics.flatten")
        patch(metrics, "linearization_probe", "metrics.linearization_probe")
        patch(federation, "mde", "metrics.mde")
    if "io" in layers:
        def bundle_mb(a, r):
            directory = Path(r)
            return _files_mb(*(directory / f for f in ("support.csv", "query.csv", "meta.json")))

        patch(experiments, "save_task_bundle", "io.write", size_mb=bundle_mb)
        patch(experiments, "load_task_bundle", "io.read",
              size_mb=lambda a, r: bundle_mb(a, a[0]))
        patch(experiments, "save_checkpoint", "io.write", size_mb=lambda a, r: _files_mb(a[0]))
        patch(experiments, "load_checkpoint", "io.read", size_mb=lambda a, r: _files_mb(a[0]))
        patch(experiments, "write_round_log", "io.write", size_mb=lambda a, r: _files_mb(a[0]))
        patch(experiments, "write_trace", "io.write",
              size_mb=lambda a, r: _files_mb(a[0] / "trace.csv", a[0] / "errors_final.csv"))
        patch(experiments, "read_trace", "io.read", size_mb=lambda a, r: _files_mb(a[0] / "trace.csv"))
        patch(experiments, "read_final_errors", "io.read",
              size_mb=lambda a, r: _files_mb(a[0] / "errors_final.csv"))
