"""Span tracing of pdem's layers, installed from outside the package.

Each traced function is replaced at its module attribute by a wrapper that
records one span: name, start, end, parent span, task id, a work count and
whether the call raised a PdemError.  Calls made through the module attribute
(including the package's own calls between modules, and calls inside one
module through its globals) pass through the wrapper.  Spans live in compact
arrays in memory and are written out once, after the run.
"""

import importlib
import json
from array import array
from time import perf_counter

import numpy as np

from pdem.errors import PdemError

# (module, function) pairs wrapped in a traced round.
TRACED = (
    ("specfun", "bessel_poly_with_derivatives"),
    ("specfun", "laguerre"),
    ("specfun", "log_gamma"),
    ("specfun", "kummer_1f1"),
    ("model", "energy"),
    ("model", "wavefunction"),
    ("model", "wavefunction_with_derivatives"),
    ("model", "continuum_wavefunction_with_derivatives"),
    ("canonical", "canonical_wavefunction"),
    ("oracle", "integrate"),
    ("oracle", "build_hamiltonian"),
    ("oracle", "lowest_eigenvalues"),
    ("oracle", "ode_residual"),
    ("checks", "bound_overlap"),
    ("limits", "wavefunction_distance"),
    ("cli", "main"),
)


class Tracer:
    """Records spans while installed; install() and uninstall() swap the
    module attributes so that untraced rounds run the original functions."""

    def __init__(self):
        self.names = [f"{module}.{func}" for module, func in TRACED]
        self.parent = array("q")
        self.task_of = array("q")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.raised = array("b")
        self.stack = [-1]
        self.task = -1
        self.energy_keys = set()
        self._originals = []
        for index, (module_name, func) in enumerate(TRACED):
            module = importlib.import_module(f"pdem.{module_name}")
            original = getattr(module, func, None)
            if original is not None:  # a later version may drop the function
                self._originals.append((module, func, original, self._wrap(index, original)))

    def install(self):
        for module, func, _, wrapper in self._originals:
            setattr(module, func, wrapper)

    def uninstall(self):
        for module, func, original, _ in self._originals:
            setattr(module, func, original)

    def _wrap(self, index, fn):
        parent, task_of, name, start, end, work, raised, stack = (
            self.parent, self.task_of, self.name, self.start, self.end,
            self.work, self.raised, self.stack,
        )
        qualname = self.names[index]
        energy_keys = self.energy_keys

        # call(sid, args, kwargs) runs fn and records the span's work count.
        if qualname == "oracle.integrate":
            def call(sid, args, kwargs):
                f = args[0]
                if not callable(f):
                    return fn(*args, **kwargs)

                def counted(x):  # work = integrand evaluations, one per point
                    work[sid] += np.size(x)
                    return f(x)

                return fn(counted, *args[1:], **kwargs)
        elif qualname == "oracle.build_hamiltonian":
            def call(sid, args, kwargs):
                result = fn(*args, **kwargs)
                work[sid] = result.diag.shape[0]  # work = matrix rows
                return result
        elif qualname == "oracle.lowest_eigenvalues":
            def call(sid, args, kwargs):
                result = fn(*args, **kwargs)
                work[sid] = args[0].diag.shape[0] * len(result)  # work = rows x levels
                return result
        elif qualname == "model.energy":
            def call(sid, args, kwargs):
                energy_keys.add(args)  # (params, n)
                return fn(*args, **kwargs)
        else:
            def call(sid, args, kwargs):
                return fn(*args, **kwargs)

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            task_of.append(self.task)
            name.append(index)
            start.append(0.0)
            end.append(0.0)
            work.append(0)
            raised.append(0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return call(sid, args, kwargs)
            except PdemError:
                raised[sid] = 1
                raise
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()

        return wrapper

    def totals(self):
        """Per traced function: calls, inclusive and self seconds, work, raised."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int16).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        # Spans nest strictly (one thread, synchronous calls), so the part of a
        # span covered by its children is the sum of their durations.
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)

        def per_name(weights=None):
            return np.bincount(name, weights=weights, minlength=k)

        calls = per_name()
        inclusive = per_name(dur)
        own = per_name(dur - child)
        work = per_name(np.frombuffer(self.work, dtype=np.int64).astype(float))
        raised = per_name(np.frombuffer(self.raised, dtype=np.int8).astype(float))
        return {
            n: {
                "calls": int(calls[i]),
                "seconds": float(inclusive[i]),
                "self_seconds": float(own[i]),
                "work": float(work[i]),
                "raised": int(raised[i]),
            }
            for i, n in enumerate(self.names)
        }

    def write(self, path):
        """All spans as one .npz: columns plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            task=np.frombuffer(self.task_of, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            work=np.frombuffer(self.work, dtype=np.int64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            names=np.array(json.dumps(self.names)),
        )


def layer_metrics(totals, distinct_energy_keys):
    """Per-layer metrics named <module>.<function>.<stat>, from one traced
    round, so counts are per batch."""

    def t(name):
        return totals[name]

    def per_call(name, scale):
        c = t(name)["calls"]
        return t(name)["seconds"] * scale / c if c else 0.0

    def self_per_call(name, scale):
        c = t(name)["calls"]
        return t(name)["self_seconds"] * scale / c if c else 0.0

    def per_work(name, scale, own=False):
        w = t(name)["work"]
        secs = t(name)["self_seconds" if own else "seconds"]
        return secs * scale / w if w else 0.0

    def calls(name):
        return t(name)["calls"]

    integrate = t("oracle.integrate")
    kummer = t("specfun.kummer_1f1")
    energy_calls = calls("model.energy")
    return {
        "model.wavefunction.calls": calls("model.wavefunction"),
        "model.wavefunction.us_per_call": per_call("model.wavefunction", 1e6),
        "model.wavefunction.self_us_per_call": self_per_call("model.wavefunction", 1e6),
        "model.wavefunction_with_derivatives.us_per_call":
            per_call("model.wavefunction_with_derivatives", 1e6),
        "specfun.bessel_poly_with_derivatives.calls": calls("specfun.bessel_poly_with_derivatives"),
        "specfun.bessel_poly_with_derivatives.us_per_call":
            per_call("specfun.bessel_poly_with_derivatives", 1e6),
        "specfun.laguerre.us_per_call": per_call("specfun.laguerre", 1e6),
        "specfun.log_gamma.calls": calls("specfun.log_gamma"),
        "model.energy.calls": energy_calls,
        "model.energy.distinct_frac": distinct_energy_keys / energy_calls if energy_calls else 0.0,
        "oracle.integrate.calls": calls("oracle.integrate"),
        "oracle.integrate.evals_per_call":
            integrate["work"] / integrate["calls"] if integrate["calls"] else 0.0,
        "oracle.integrate.self_us_per_eval": per_work("oracle.integrate", 1e6, own=True),
        "checks.bound_overlap.ms_per_call": per_call("checks.bound_overlap", 1e3),
        "limits.wavefunction_distance.ms_per_call": per_call("limits.wavefunction_distance", 1e3),
        "canonical.canonical_wavefunction.us_per_call": per_call("canonical.canonical_wavefunction", 1e6),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_ms_per_call": self_per_call("cli.main", 1e3),
        "oracle.build_hamiltonian.ns_per_row": per_work("oracle.build_hamiltonian", 1e9),
        "oracle.lowest_eigenvalues.calls": calls("oracle.lowest_eigenvalues"),
        "oracle.lowest_eigenvalues.ns_per_row_level": per_work("oracle.lowest_eigenvalues", 1e9),
        "oracle.lowest_eigenvalues.self_s": t("oracle.lowest_eigenvalues")["self_seconds"],
        "specfun.kummer_1f1.calls": calls("specfun.kummer_1f1"),
        "specfun.kummer_1f1.us_per_call": per_call("specfun.kummer_1f1", 1e6),
        "specfun.kummer_1f1.refused": kummer["raised"],
        "specfun.kummer_1f1.refused_frac": kummer["raised"] / kummer["calls"] if kummer["calls"] else 0.0,
        "model.continuum_wavefunction_with_derivatives.us_per_call":
            per_call("model.continuum_wavefunction_with_derivatives", 1e6),
        "oracle.ode_residual.us_per_call": per_call("oracle.ode_residual", 1e6),
    }
