"""Span tracer for the mredmd layers, installed from outside the package.

:meth:`Tracer.install` rebinds every public function and public method of
the traced modules, in every ``mredmd`` namespace that binds it (for example
``sample_ensemble`` in both ``dynamics`` and ``experiments``), to a wrapper
that records a span ``(op, id, parent, name, start, end)``. Spans stay in
memory; :meth:`Tracer.save` writes them out once the run is over.

Some layers also record counts at the same boundary, computed from argument
and result shapes (see ``_HOOKS``); they repeat exactly for a given input.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

#: Traced modules, in pipeline order; also the metric prefixes.
LAYERS = ("cli", "experiments", "dynamics", "hankel", "edmd", "observables", "linalg")


def _pinv_flops(a):
    """Thin SVD of an (m, n) matrix, 4 q p^2 + 8 p^3 with p = min, q = max
    (Golub & Van Loan), plus 2 m n p to form the pseudo-inverse."""
    m, n = np.shape(a)
    p, q = min(m, n), max(m, n)
    return 4 * q * p * p + 8 * p**3 + 2 * m * n * p


def _integrate_counts(args, kwargs, result):
    # result has shape (n_steps + 1,) + x0.shape; the last axis is the state.
    rows = int(np.prod(result.shape[1:-1]))
    return {"dynamics.rk4_state_steps": (result.shape[0] - 1) * rows}


def _sample_counts(args, kwargs, result):
    # All records of one ensemble share their series and dense-grid shapes.
    first = result[0]
    sampled = sum(s.values.size for s in first.series.values())
    dense = first.dense_states.size if first.dense_states is not None else 0
    k = len(result)
    return {
        "dynamics.records": k,
        "dynamics.sampled_values": k * sampled,
        "dynamics.dense_values": k * dense,
    }


def _emit_counts(args, kwargs, result):
    return {"experiments.emit.bytes": sum(p.stat().st_size for p in result.iterdir() if p.is_file())}


def _run_counts(args, kwargs, result):
    return {"experiments.warnings": len(result.warnings), "experiments.errors": len(result.errors)}


def _lift_counts(args, kwargs, result):
    return {"observables.lift_bytes": result.nbytes}


_HOOKS = {
    "dynamics.integrate": _integrate_counts,
    "dynamics.sample_ensemble": _sample_counts,
    "hankel.build_hankel_matrices": lambda a, k, r: {"hankel.build.columns": r.p_x.shape[1]},
    "linalg.pinv": lambda a, k, r: {"linalg.pinv.flops": _pinv_flops(r)},
    "experiments.emit_report": _emit_counts,
    "experiments.emit_comparison": _emit_counts,
    "experiments.run": _run_counts,
    "observables.Dictionary.evaluate": _lift_counts,
    "observables.Dictionary.evaluate_columns": _lift_counts,
}


def _public_callables(module):
    """(qualified name, owner, attribute, raw object) for each public function
    and public method defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(func):
                    yield f"{layer}.{obj.__name__}.{attr}", obj, attr, raw


class Tracer:
    """Records spans of the mredmd layers for the ops of one run."""

    def __init__(self):
        self.op = -1
        self.names = []
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._saved = []

    def _wrap(self, name, func):
        name_id = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (self.op, span_id, parent, name_id, start, end)
            if hook is not None:
                counts = self.counts[self.op]
                for key, value in hook(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        package = importlib.import_module("mredmd")
        modules = [importlib.import_module(f"mredmd.{layer}") for layer in LAYERS]
        namespaces = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith("mredmd.")
        ]
        bindings = []
        for module in modules:
            for name, owner, attr, raw in _public_callables(module):
                if inspect.isclass(owner):
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    bindings.append((owner, attr, raw, wrapped))
                    continue
                wrapped = self._wrap(name, raw)
                for ns in namespaces:
                    for bound_name, value in vars(ns).items():
                        if value is raw:
                            bindings.append((ns, bound_name, raw, wrapped))
        return bindings

    def install(self):
        """Rebind the public callables of every traced layer to their wrappers."""
        if not self._saved:
            self._saved = self._bindings()
        for owner, attr, _, wrapped in self._saved:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        """Restore every binding :meth:`install` replaced."""
        for owner, attr, raw, _ in self._saved:
            setattr(owner, attr, raw)

    def arrays(self):
        """Spans as columns: op, id, parent, name index, start, end."""
        table = np.array(self.spans, dtype=float).reshape(-1, 6)
        return {
            "op": table[:, 0].astype(np.int64),
            "id": table[:, 1].astype(np.int64),
            "parent": table[:, 2].astype(np.int64),
            "name": table[:, 3].astype(np.int64),
            "start": table[:, 4],
            "end": table[:, 5],
        }

    def save(self, path):
        """Write all spans, the name table and the counts to ``path`` (.npz)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            counts=np.array(
                [(op, key, value) for op, c in self.counts.items() for key, value in c.items()],
                dtype=object,
            ).astype(str),
            **self.arrays(),
        )

    def per_op(self):
        """For each op: {span name: (total seconds, self seconds, calls)}.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(
            cols["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        out = {}
        for op in np.unique(cols["op"]):
            sel = cols["op"] == op
            names = cols["name"][sel]
            size = len(self.names)
            total = np.bincount(names, weights=dur[sel], minlength=size)
            own = np.bincount(names, weights=self_time[sel], minlength=size)
            calls = np.bincount(names, minlength=size)
            out[int(op)] = {
                self.names[i]: (float(total[i]), float(own[i]), int(calls[i]))
                for i in np.flatnonzero(calls)
            }
        return out


def _sum(spans, names, field):
    return sum(spans[n][field] for n in names if n in spans)


def _total(*names):
    return lambda spans, counts: _sum(spans, names, 0)


def _self(*names):
    return lambda spans, counts: _sum(spans, names, 1)


def _calls(name):
    return lambda spans, counts: _sum(spans, [name], 2)


def _layer_self(layer):
    return lambda spans, counts: sum(v[1] for n, v in spans.items() if n.startswith(layer + "."))


def _count(key):
    return lambda spans, counts: counts.get(key, 0)


def _dense_use(spans, counts):
    dense = counts.get("dynamics.dense_values", 0)
    return counts.get("dynamics.sampled_values", 0) / dense if dense else 0.0


#: Per-layer metrics of one op: name -> (unit, function of the op's span
#: table from :meth:`Tracer.per_op` and its counts). ``*.s`` is span time,
#: ``*.self_s`` span time minus child spans; ``<layer>.self_s`` sums the
#: self time of every traced callable of that layer.
PER_LAYER = {
    "cli.self_s": ("s", _layer_self("cli")),
    "experiments.self_s": ("s", _layer_self("experiments")),
    "experiments.run.self_s": (
        "s",
        _self(
            "experiments.run",
            "experiments.run_multirate",
            "experiments.run_single_state",
            "experiments.run_sweep",
        ),
    ),
    "experiments.evaluate.self_s": ("s", _self("experiments.evaluate_prediction")),
    # A count, not a time: only the sweep computes noise floors, and a time
    # metric that reads 0 on every run of the other workloads is refused.
    "experiments.noise_floor.calls": ("count", _calls("experiments.ideal_noise_floor")),
    "experiments.emit.s": ("s", _total("experiments.emit_report", "experiments.emit_comparison")),
    "experiments.emit.bytes": ("bytes", _count("experiments.emit.bytes")),
    "experiments.warnings": ("count", _count("experiments.warnings")),
    "experiments.errors": ("count", _count("experiments.errors")),
    "dynamics.self_s": ("s", _layer_self("dynamics")),
    "dynamics.sample_ensemble.self_s": ("s", _self("dynamics.sample_ensemble")),
    "dynamics.integrate.s": ("s", _total("dynamics.integrate")),
    "dynamics.integrate.calls": ("count", _calls("dynamics.integrate")),
    "dynamics.rk4_state_steps": ("count", _count("dynamics.rk4_state_steps")),
    "dynamics.records": ("count", _count("dynamics.records")),
    "dynamics.dense_use_ratio": ("ratio", _dense_use),
    "hankel.self_s": ("s", _layer_self("hankel")),
    "hankel.build.s": ("s", _total("hankel.build_hankel_matrices")),
    "hankel.build.columns": ("count", _count("hankel.build.columns")),
    "hankel.fit.self_s": (
        "s",
        _self("hankel.fit_component_operator", "hankel.fit_component_operators"),
    ),
    "hankel.fit.calls": ("count", _calls("hankel.fit_component_operator")),
    "hankel.reconstruct.self_s": ("s", _self("hankel.reconstruct_states")),
    "hankel.estimate.s": ("s", _total("hankel.estimate_component_at")),
    "edmd.self_s": ("s", _layer_self("edmd")),
    "edmd.lift.s": ("s", _total("edmd.build_edmd_matrices")),
    "edmd.fit.self_s": ("s", _self("edmd.fit_koopman", "edmd.fit_model")),
    "edmd.predict.s": ("s", _total("edmd.predict")),
    "edmd.predict.calls": ("count", _calls("edmd.predict")),
    "edmd.spectrum.s": ("s", _total("edmd.generator_spectrum")),
    "observables.self_s": ("s", _layer_self("observables")),
    "observables.evaluate.s": ("s", _total("observables.Dictionary.evaluate")),
    "observables.evaluate.calls": ("count", _calls("observables.Dictionary.evaluate")),
    "observables.evaluate_columns.s": ("s", _total("observables.Dictionary.evaluate_columns")),
    "observables.lift_bytes": ("bytes", _count("observables.lift_bytes")),
    "linalg.self_s": ("s", _layer_self("linalg")),
    "linalg.pinv.s": ("s", _total("linalg.pinv")),
    "linalg.pinv.calls": ("count", _calls("linalg.pinv")),
    "linalg.pinv.flops": ("flop", _count("linalg.pinv.flops")),
    "linalg.matrix_log.s": ("s", _total("linalg.matrix_log")),
    "linalg.matrix_log.calls": ("count", _calls("linalg.matrix_log")),
    "linalg.matrix_exp.s": ("s", _total("linalg.matrix_exp")),
    "linalg.eigenvalues.s": ("s", _total("linalg.eigenvalues")),
    "linalg.condition_number.s": ("s", _total("linalg.condition_number")),
    "linalg.spectrum_distance.s": ("s", _total("linalg.spectrum_distance")),
}


def layer_metrics(tracer):
    """Per-layer metric values of every traced op: {op: {metric: value}}."""
    return {
        op: {name: float(fn(spans, tracer.counts[op])) for name, (_, fn) in PER_LAYER.items()}
        for op, spans in tracer.per_op().items()
    }
