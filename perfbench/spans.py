"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` wraps every public function of the eight layer
modules at every place where the package binds it (its own module, any
module that imported it by name, the package namespace), so calls from
inside the package are traced too. ``uninstall`` puts the original
objects back. Each call records a span: a name, a start, an end, its
parent span and one optional count. Spans are kept in compact arrays
in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "data", "matrixops", "spd", "grassmann", "kernels", "learn", "features")

# Commands the workloads run, with the name of their per-command metric.
COMMANDS = {
    "gram": "cli.gram_s",
    "svm-predict": "cli.svm_predict_s",
    "definiteness": "cli.definiteness_s",
    "cluster": "cli.cluster_s",
    "svm-train": "cli.svm_train_s",
    "mkl-train": "cli.mkl_train_s",
    "covdesc": "cli.covdesc_s",
}


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _pairs_symmetric(fn, args, kwargs, result):
    m = len(_bound(fn, args, kwargs, "points"))
    return m * (m - 1) / 2


def _pairs_cross(fn, args, kwargs, result):
    return len(_bound(fn, args, kwargs, "xs")) * len(_bound(fn, args, kwargs, "ys"))


def _smo_iterations(fn, args, kwargs, result):
    return result.n_iter


def _descriptors(fn, args, kwargs, result):
    return sum(len(per_sample) for per_sample in _bound(fn, args, kwargs, "descriptors"))


# Spans whose count is worth keeping: distance pairs evaluated, SMO
# iterations, and descriptors ranked by subwindow selection.
COUNTERS = {
    "kernels.squared_distance_matrix": _pairs_symmetric,
    "kernels.cross_squared_distances": _pairs_cross,
    "learn.svm_train": _smo_iterations,
    "features.select_subwindows": _descriptors,
}


def public_functions(module):
    """Public functions defined in ``module`` itself, by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """In-memory span recorder for the layer modules of ``manikernels``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name: str):
        name_id = self._name_id(span_name)
        counter = COUNTERS.get(span_name)
        is_run = span_name == "cli.run"
        stack = self._stack
        names, parents, starts, ends, counts = self.name, self.parent, self.start, self.end, self.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            # cli.run spans carry the subcommand in their name
            names.append(self._name_id(f"cli.run:{args[0][0]}") if is_run else name_id)
            parents.append(stack[-1])
            counts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[idx] = counter(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every public layer function by a traced one."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"manikernels.{layer}")
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        package_modules = [
            mod for key, mod in sys.modules.items() if key == "manikernels" or key.startswith("manikernels.")
        ]
        for module in package_modules:
            for name, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def _columns(self, lo: int, hi: int):
        # slicing an array copies it, so no view pins the recording buffers
        return (
            np.frombuffer(self.name[lo:hi], dtype=np.int32),
            np.frombuffer(self.parent[lo:hi], dtype=np.int32),
            np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi]),
            np.frombuffer(self.count[lo:hi]),
        )

    def pass_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in [lo, hi): one pass.

        A span's self time is its duration minus that of its children.
        """
        name, parent, dur, count = self._columns(lo, hi)
        nested = parent >= lo
        child = np.zeros(hi - lo)
        np.add.at(child, parent[nested] - lo, dur[nested])
        self_time = dur - child
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names])[name]
        # spans are recorded in call order, so each top-level span is
        # followed by all of its descendants
        tops = np.flatnonzero(~nested)
        root = tops[np.searchsorted(tops, np.arange(hi - lo), side="right") - 1]

        def select(*wanted):
            return np.isin(name, [self._name_ids.get(w, -1) for w in wanted])

        in_covdesc = select("cli.run:covdesc")[root]

        out: dict[str, float] = {}
        for layer in LAYERS:
            mask = layer_of == LAYERS.index(layer)
            out[f"{layer}.self_s"] = float(self_time[mask].sum())
            out[f"{layer}.calls"] = int(mask.sum())
        for command, metric in COMMANDS.items():
            out[metric] = float(dur[select(f"cli.run:{command}")].sum())
        d2 = select("kernels.squared_distance_matrix", "kernels.cross_squared_distances")
        d2_s = float(dur[d2].sum())
        out["kernels.d2_s"] = d2_s
        out["kernels.pairs_per_s"] = float(count[d2].sum()) / d2_s if d2_s > 0 else 0.0
        out["kernels.d2_builds"] = int(select("kernels.squared_distance_matrix").sum())
        out["kernels.serialize_s"] = float(dur[select("kernels.gram_to_csv", "kernels.gram_to_json")].sum())
        out["learn.kmeans_s"] = float(dur[select("learn.kernel_kmeans")].sum())
        smo = select("learn.svm_train")
        smo_s = float(dur[smo].sum())
        smo_iters = int(count[smo].sum())
        out["learn.svm_fits"] = int(smo.sum())
        out["learn.smo_iters"] = smo_iters
        out["learn.smo_s"] = smo_s
        out["learn.smo_iter_us"] = 1e6 * smo_s / smo_iters if smo_iters else 0.0
        out["features.covariance_s"] = float(
            dur[select("features.integral_images", "features.region_covariance")].sum()
        )
        out["features.select_s"] = float(dur[select("features.select_subwindows")].sum())
        logs = select("matrixops.spd_log")
        out["matrixops.spd_log.calls"] = int(logs.sum())
        descriptors = float(count[select("features.select_subwindows") & in_covdesc].sum())
        covdesc_logs = int((logs & in_covdesc).sum())
        out["features.logs_per_descriptor"] = covdesc_logs / descriptors if descriptors else 0.0
        out["data.load_s"] = float(dur[select("data.load_dataset")].sum())
        return out

    def save(self, path, pass_bounds) -> None:
        """Write every recorded span, with the pass each belongs to."""
        pass_of = np.full(len(self), -1, dtype=np.int32)
        for index, (lo, hi) in enumerate(pass_bounds):
            pass_of[lo:hi] = index
        name, parent, _, count = self._columns(0, len(self))
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=np.frombuffer(self.start[:]),
            end=np.frombuffer(self.end[:]),
            count=count,
            pass_index=pass_of,
        )
