"""Span shims around the public entry points of each bff module.

`Tracer.install()` replaces each function in TARGETS, wherever a bff module
holds it, with a shim that records one span: name, start, end, parent, an
auxiliary number (the combine width, a render's bytes, quad's evaluation
count, a series' term count, the crossings found) and whether it raised.
Spans live in flat arrays in memory and are written out by `save()`;
`layer_metrics()` derives per-op counts and self times from them.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute) pairs; quad is scipy's, as bff.numerics calls it
TARGETS = (
    ("bff.bayes_factors", "log_bf"),
    ("bff.effect_sizes", "tau2_for"),
    ("bff.curves", "evaluate_bff"),
    ("bff.curves", "combine"),
    ("bff.curves", "refine_max"),
    ("bff.curves", "find_crossings"),
    ("bff.exports", "build_export"),
    ("bff.exports", "render"),
    ("bff.oracle", "log_bf_quadrature"),
    ("bff.numerics", "integrate"),
    ("bff.numerics", "sum_series"),
    ("bff.numerics", "quad"),
    ("bff.priors", "nm_log_density"),
    ("bff.priors", "gamma_log_density"),
)

FORMATS = ("csv", "json", "svg")
FAMILIES = ("z", "t", "chisq", "f")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self.err = array("b")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.aux.append(0.0)
        self.err.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, failed: bool = False) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        if failed:
            self.err[i] = 1

    @contextmanager
    def span(self, name: str, aux: float = 0.0):
        i = self.open(self.nid(name))
        self.aux[i] = aux
        try:
            yield i
        except BaseException:
            self.close(i, True)
            raise
        self.close(i)

    # ------------------------------------------------------------ shims

    def _shim(self, module: str, attr: str, fn):
        open_, close, aux = self.open, self.close, self.aux
        nid = self.nid(f"{module.split('.')[-1]}.{attr}")

        if attr == "render":
            ids = {f: self.nid(f"exports.render.{f}") for f in FORMATS}

            def shim(export, format):
                i = open_(ids.get(format, nid))
                try:
                    text = fn(export, format)
                except BaseException:
                    close(i, True)
                    raise
                close(i)
                aux[i] = len(text.encode("utf-8"))
                return text

        elif attr == "log_bf_quadrature":
            ids = {f: self.nid(f"oracle.log_bf_quadrature.{f}") for f in FAMILIES}

            def shim(stat, *args, **kwargs):
                i = open_(ids[stat.family.value])
                try:
                    result = fn(stat, *args, **kwargs)
                except BaseException:
                    close(i, True)
                    raise
                close(i)
                return result

        elif attr == "sum_series":

            def shim(term, *args, **kwargs):
                i = open_(nid)
                count = [0]

                def counted(j):
                    count[0] += 1
                    return term(j)

                try:
                    result = fn(counted, *args, **kwargs)
                except BaseException:
                    close(i, True)
                    raise
                finally:
                    aux[i] = count[0]
                close(i)
                return result

        else:
            # aux: studies combined, crossings found, or quad evaluations
            if attr == "combine":
                def measure(args, kwargs, result):
                    return len(args[0] if args else kwargs["studies"])
            elif attr == "evaluate_bff":
                def measure(args, kwargs, result):
                    return 1
            elif attr == "find_crossings":
                def measure(args, kwargs, result):
                    return len(result)
            elif attr == "quad":
                def measure(args, kwargs, result):
                    info = result[2] if len(result) > 2 else None
                    return info.get("neval", 0) if isinstance(info, dict) else 0
            else:
                measure = None

            def shim(*args, **kwargs):
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    close(i, True)
                    raise
                close(i)
                if measure is not None:
                    aux[i] = measure(args, kwargs, result)
                return result

        shim.__wrapped__ = fn
        return shim

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "bff" or k.startswith("bff."))]
        for module, attr in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            shim = self._shim(module, attr, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, shim)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._restore):
            setattr(m, key, original)
        self._restore.clear()

    # ------------------------------------------------------------ output

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "aux": np.frombuffer(self.aux, dtype=np.float64).copy(),
            "err": np.frombuffer(self.err, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        """Spans as arrays in one .npz, with the name table as JSON."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def _nearest(parent: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Index of each span's nearest ancestor-or-self in target, else -1."""
    res = np.where(target, np.arange(len(parent)), parent)
    while True:
        live = np.flatnonzero(res >= 0)
        live = live[~target[res[live]]]
        if live.size == 0:
            return res
        res[live] = parent[res[live]]


def layer_metrics(tr: Tracer, root: str) -> dict[str, tuple[float, int]]:
    """Per-layer metrics over the spans below `root` spans.

    Each value comes with the number of spans it rests on, so a caller can
    tell a layer the ops never reached from one that took no time.
    """
    a = tr.arrays()
    name = np.array(tr.names)[a["name"]]
    parent, aux, err = a["parent"], a["aux"], a["err"]
    dur = a["end"] - a["start"]
    n = len(name)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child[:n]

    is_root = name == root
    op = _nearest(parent, is_root)
    inside = op >= 0
    ops = max(int(is_root.sum()), 1)

    def pick(*wanted):
        return inside & np.isin(name, wanted)

    def per_op(mask, values=None):
        total = float(mask.sum() if values is None else values[mask].sum())
        return total / ops, int(mask.sum())

    def ms_per_op(mask, values):
        return 1e3 * float(values[mask].sum()) / ops, int(mask.sum())

    def mean_ms(mask):
        k = int(mask.sum())
        return (1e3 * float(dur[mask].mean()) if k else 0.0), k

    out: dict[str, tuple[float, int]] = {}

    # curve evaluations: each Study.log_bf_at calls tau2_for once, and a
    # combined curve evaluates every study once per point
    tau2 = pick("effect_sizes.tau2_for")
    builder = _nearest(parent, np.isin(name, ["curves.evaluate_bff", "curves.combine"]))
    width = np.where(builder >= 0, aux[np.maximum(builder, 0)], aux[np.maximum(op, 0)])
    evals = np.where(tau2, 1.0 / np.maximum(width, 1.0), 0.0)
    phase = _nearest(parent, np.isin(name, [
        "curves.evaluate_bff", "curves.combine", "curves.refine_max", "curves.find_crossings"]))
    phase_name = np.where(phase >= 0, name[np.maximum(phase, 0)], "")
    refine = tau2 & (phase_name == "curves.refine_max")
    threshold = tau2 & (phase_name == "curves.find_crossings")
    crossings = pick("curves.find_crossings")
    curve_spans = pick("curves.evaluate_bff", "curves.combine", "curves.refine_max",
                       "curves.find_crossings")
    # a metric rests on the spans of its layer, so a layer the ops reach
    # reports its zeros rather than being taken as unreached
    reached = int(curve_spans.sum())
    found = float(aux[crossings].sum())
    out["curves.evals_per_op"] = per_op(tau2, evals)[0], reached
    out["curves.refine_evals_per_op"] = per_op(refine, evals)[0], reached
    out["curves.threshold_evals_per_op"] = per_op(threshold, evals)[0], reached
    out["curves.evals_per_crossing"] = (
        float(evals[threshold].sum()) / found if found else 0.0, reached)
    out["curves.self_ms_per_op"] = ms_per_op(curve_spans, self_t)[0], reached
    out["curves.refine_ms_per_op"] = ms_per_op(pick("curves.refine_max"), dur)[0], reached
    out["curves.threshold_ms_per_op"] = ms_per_op(crossings, dur)[0], reached

    log_bf = pick("bayes_factors.log_bf")
    out["bayes_factors.calls_per_op"] = per_op(log_bf)
    out["bayes_factors.self_ms_per_op"] = ms_per_op(log_bf, self_t)
    out["effect_sizes.tau2_calls_per_op"] = per_op(tau2)
    out["effect_sizes.self_ms_per_op"] = ms_per_op(tau2, self_t)

    build = pick("exports.build_export")
    out["exports.build_ms_per_op"] = ms_per_op(build, self_t)
    renders = pick(*(f"exports.render.{f}" for f in FORMATS))
    for f in FORMATS:
        out[f"exports.render_ms_per_op.{f}"] = mean_ms(pick(f"exports.render.{f}"))
    out["exports.bytes_per_op"] = per_op(renders, aux)[0], int(build.sum())

    points = pick(*(f"oracle.log_bf_quadrature.{f}" for f in FAMILIES))
    k = max(int(points.sum()), 1)
    basis = int(points.sum())
    for f in FAMILIES:
        out[f"oracle.ms_per_point.{f}"] = mean_ms(pick(f"oracle.log_bf_quadrature.{f}"))
    out["oracle.self_ms_per_point"] = (1e3 * float(self_t[points].sum()) / k, basis)
    integrate = pick("numerics.integrate")
    quad = pick("numerics.quad")
    series = pick("numerics.sum_series")
    out["numerics.integrate_calls_per_point"] = (float(integrate.sum()) / k, basis)
    out["numerics.quad_neval_per_point"] = (float(aux[quad].sum()) / k, basis)
    out["numerics.series_terms_per_point"] = (float(aux[series].sum()) / k, basis)
    out["numerics.failures"] = (float(err[integrate | quad | series].sum()), basis)
    density = pick("priors.nm_log_density", "priors.gamma_log_density")
    out["priors.density_calls_per_point"] = (float(density.sum()) / k, basis)
    return out
