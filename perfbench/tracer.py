"""Outside-in tracer for one CLI invocation, and the per-layer summary of
its spans.

Run as a script, it wraps the public functions of every `hillgap` module
and the dense kernels of `numpy.linalg`, calls `hillgap.cli.main` with the
remaining arguments, and writes the spans as JSON lines:

    python3 perfbench/tracer.py SPANS.jsonl asymptotics --m 1 --K 32 ...

Nothing in the package changes.  A span records its name
(`<layer>.<function>`), its parent span, start and end, the thread it ran
on, and for a few calls the window size or matrix shape.  The current span
lives in a context variable, and `ThreadPoolExecutor.submit` is wrapped to
carry the submitting context into the worker, so spans on `_parallel_map`
threads are parented to the span that submitted them.  Spans are kept in
memory and written once, when the command returns.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "seqspace", "operator", "eigensolver", "riesz", "asymptotics")
LINALG = ("solve", "inv", "eigvals", "eigvalsh", "eig", "eigh", "qr", "norm")

# LAPACK flop counts for an n x n argument, real arithmetic; complex
# arguments cost four times as much.  Eigenvalue-only nonsymmetric QR is
# taken as 10 n^3, with vectors 25 n^3 (Golub & Van Loan, table 7.7.1).
_FLOPS = {
    "solve": lambda n, k: 2.0 * n**3 / 3.0 + 2.0 * n * n * k,
    "inv": lambda n, k: 2.0 * n**3,
    "eigvals": lambda n, k: 10.0 * n**3,
    "eigvalsh": lambda n, k: 4.0 * n**3 / 3.0,
    "eig": lambda n, k: 25.0 * n**3,
    "eigh": lambda n, k: 9.0 * n**3,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.current = contextvars.ContextVar("perfbench_span", default=-1)
        self._lock = threading.Lock()
        self._threads: dict[int, int] = {}
        self.t_origin = time.perf_counter()

    def _thread(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    def wrap(self, name: str, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [0, tracer.current.get(), name, 0.0, 0.0, tracer._thread(), None]
            with tracer._lock:
                span[0] = len(tracer.spans)
                tracer.spans.append(span)
            token = tracer.current.set(span[0])
            span[3] = time.perf_counter() - tracer.t_origin
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[4] = time.perf_counter() - tracer.t_origin
                tracer.current.reset(token)
                if info is not None:
                    span[6] = info(args, kwargs, result)

        return traced

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _shape_info(name):
    def info(args, kwargs, result):
        a = args[0] if args else None
        shape = list(getattr(a, "shape", ()))
        extra = {"shape": shape, "complex": bool(getattr(a, "dtype", None) is not None
                                                 and a.dtype.kind == "c")}
        if name == "solve" and len(args) > 1:
            b = args[1]
            extra["nrhs"] = 1 if getattr(b, "ndim", 1) == 1 else int(b.shape[1])
        return extra
    return info


def _eigenvalues_info(args, kwargs, result):
    validate = kwargs.get("validate", args[1] if len(args) > 1 else True)
    return {"K": int(args[0].K), "validate": bool(validate)}


def _converge_info(args, kwargs, result):
    validate = kwargs.get("validate", args[7] if len(args) > 7 else True)
    return {"K": int(result[0]) if result else None, "validate": bool(validate)}


_INFO = {
    "eigensolver.eigenvalues": _eigenvalues_info,
    "eigensolver.converge_truncation": _converge_info,
}


def install(tracer: Tracer):
    """Wrap every public function of the package modules, rebinding each name
    that refers to it in any package namespace (the CLI imports functions by
    name), plus the dense kernels of numpy.linalg and the thread-pool submit."""
    import concurrent.futures
    import importlib

    import numpy as np

    modules = [importlib.import_module(f"hillgap.{layer}") for layer in LAYERS]
    package = importlib.import_module("hillgap")
    wrapped: dict[int, object] = {}
    for layer, mod in zip(LAYERS, modules):
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            full = f"{layer}.{name}"
            wrapped[id(obj)] = tracer.wrap(full, obj, _INFO.get(full))
    for ns in modules + [package]:
        for name, obj in list(vars(ns).items()):
            if id(obj) in wrapped:
                setattr(ns, name, wrapped[id(obj)])
            elif isinstance(obj, dict):  # dispatch tables such as cli.HANDLERS
                for key, val in obj.items():
                    if id(val) in wrapped:
                        obj[key] = wrapped[id(val)]

    for name in LINALG:
        fn = getattr(np.linalg, name)
        setattr(np.linalg, name, tracer.wrap(f"linalg.{name}", fn, _shape_info(name)))

    pool = concurrent.futures.ThreadPoolExecutor
    submit = pool.submit

    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    pool.submit = submit_in_context


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def read_spans(path: str) -> list[dict]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            sid, parent, name, t0, t1, thread, info = json.loads(line)
            if t1 < t0 or "." not in name:
                raise ValueError(f"malformed span {line.strip()}")
            spans.append({"id": sid, "parent": parent, "name": name, "t0": t0,
                          "t1": t1, "thread": thread, "info": info})
    for i, s in enumerate(spans):
        if s["id"] != i or s["parent"] >= i:
            raise ValueError(f"span {i} is out of order or has a later parent")
    return spans


def union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _flops(span) -> float:
    name = span["name"].split(".", 1)[1]
    info = span["info"] or {}
    shape = info.get("shape") or []
    if len(shape) < 2:
        size = 1
        for d in shape:
            size *= d
        real = 2.0 * size if name == "norm" else 0.0
    elif name == "qr":
        m, n = shape[-2], shape[-1]
        real = 2.0 * m * n * n - 2.0 * n**3 / 3.0
    elif name == "norm":
        real = 2.0 * shape[-2] * shape[-1]
    else:
        real = _FLOPS[name](shape[-1], info.get("nrhs", 1))
    return real * (4.0 if info.get("complex") else 1.0)


def summarize(spans: list[dict]) -> dict:
    """Per-layer numbers of one traced run.  Times are in seconds: `*_s` of a
    function sums its outermost spans over all threads; `<layer>.busy_s` sums
    the layer's top spans (those not called from the same layer), `wall_s`
    is the union of their intervals, and `self_s` sums each span's duration
    minus the part of it that child spans cover."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)

    def ancestors(s):
        p = s["parent"]
        while p >= 0:
            s = by_id[p]
            yield s["name"]
            p = s["parent"]

    out: dict[str, float] = defaultdict(float)
    top: dict[str, list] = defaultdict(list)
    for s in spans:
        layer, fn = s["name"].split(".", 1)
        dur = s["t1"] - s["t0"]
        out[f"{s['name']}.calls"] += 1
        covered = union_length(
            (max(c["t0"], s["t0"]), min(c["t1"], s["t1"])) for c in children[s["id"]]
        )
        out[f"{layer}.self_s"] += dur - covered
        names = list(ancestors(s))
        if s["name"] not in names:
            out[f"{s['name']}_s"] += dur
        parent_layer = by_id[s["parent"]]["name"].split(".")[0] if s["parent"] >= 0 else None
        if parent_layer != layer:
            top[layer].append((s["t0"], s["t1"]))
        if layer == "linalg":
            out["linalg.gflop_computed"] += _flops(s) / 1e9
            if fn == "solve":
                if "eigensolver.pair_eigenvalues" in names:
                    out["eigensolver.refine_solves"] += 1
                elif ("eigensolver.eigenvalues" in names
                      or "eigensolver.converge_truncation" in names):
                    out["eigensolver.certify_solves"] += 1
                if any(n.startswith("eigensolver.") for n in names):
                    dim = (s["info"] or {}).get("shape", [0])[0]
                    out["eigensolver.max_dim"] = max(out["eigensolver.max_dim"], dim)
            elif fn == "inv" and "riesz.riesz_projector" in names:
                out["riesz.resolvents"] += 1
            elif fn == "norm" and "operator.op_norm_S" in names:
                out["operator.op_norm_S.iters"] += 0.5
        elif s["name"] == "operator.build_T" and "eigensolver.converge_truncation" in names:
            out["eigensolver.windows"] += 1
        elif s["name"] in _INFO and s["info"] and s["info"]["validate"] and s["info"]["K"]:
            out["eigensolver.certified_eigenvalues"] += 2 * s["info"]["K"]
    for layer, intervals in top.items():
        out[f"{layer}.busy_s"] = sum(b - a for a, b in intervals)
        out[f"{layer}.wall_s"] = union_length(intervals)
    certified = out["eigensolver.certified_eigenvalues"]
    out["eigensolver.solves_per_eigenvalue"] = (
        out["eigensolver.certify_solves"] / certified if certified else 0.0
    )
    return dict(out)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from hillgap import cli

    code = cli.main(cli_args)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
