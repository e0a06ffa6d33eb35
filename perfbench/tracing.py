"""Outside-in tracing of scattergate's layers for the traced benchmark run.

``Tracer.install`` wraps every public function of each layer module
(``algebra``, ``direct1d``, ``dispersion``, ``glm``, ``twolevel``,
``fuchsian``) and ``cli.main``, in every ``scattergate`` namespace that bound
the function by name: ``cli`` imports ``solve_grid`` and ``recover_potential``,
``dispersion`` imports ``find_bound_states``, ``glm`` imports
``principal_value_integral``, ``direct1d`` imports ``tau``, and the package
re-exports everything.  Each wrapped call records a span (name, request,
parent, start, end) in memory.

The potential, pulse-coupling and Fuchsian 1-form evaluations run hundreds
of thousands of times, so their wrappers only count, keyed by the innermost
open span.  No wrapper changes an argument or a result.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("algebra", "direct1d", "dispersion", "glm", "twolevel", "fuchsian")
CHECKED_LAYERS = ("glm", "direct1d", "dispersion", "twolevel", "fuchsian")


def _nystroem_size(bound) -> int:
    # the Nystroem order marchenko_diagonal assembles for these arguments
    kernel, x, ds = bound["kernel"], bound["x"], bound["ds"]
    n = int(math.floor((kernel.z[-1] / 2.0 - x) / ds)) + 1
    return n - 1 if n % 2 == 0 else n


class Tracer:
    def __init__(self):
        self.spans = []          # [name, request, parent, start, end, child_s]
        self.counts = Counter()  # (counter, innermost span name) -> calls
        self.computed = Counter()
        self.nystroem_max = 0
        self.recording = False
        self.request = None
        self._stack = []
        self._patches = []
        self._wrapped = {}       # id(original) -> (original, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        sig = inspect.signature(fn)
        nystroem = name == "glm.marchenko_diagonal"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if nystroem:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                n = _nystroem_size(bound.arguments)
                tracer.computed["glm.lu_flops"] += 2.0 * n**3 / 3.0
                tracer.computed["glm.matrix_bytes"] += 8 * n * n
                tracer.nystroem_max = max(tracer.nystroem_max, n)
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [name, tracer.request, parent, time.perf_counter(), None, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent][5] += rec[4] - rec[3]

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                inner = tracer.spans[tracer._stack[-1]][0] if tracer._stack else None
                tracer.counts[name, inner] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / uninstall ------------------------------------------------

    @staticmethod
    def _namespaces():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "scattergate" or n.startswith("scattergate."))]

    def install(self):
        import scattergate.cli as cli
        from scattergate.direct1d import PotentialSpec
        from scattergate.fuchsian import FuchsianSystem
        from scattergate.twolevel import PulseSpec

        for layer in LAYERS:
            mod = sys.modules[f"scattergate.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self._wrapped[id(obj)] = (obj, self._span(f"{layer}.{attr}", obj))
        self._wrapped[id(cli.main)] = (cli.main, self._span("cli.main", cli.main))

        for mod in self._namespaces():
            for attr, obj in list(vars(mod).items()):
                hit = self._wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        todo = [PotentialSpec]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "__call__" in vars(cls):
                self._patch(cls, "__call__", self._counter("direct1d.potential_evals", cls.__call__))
        self._patch(PulseSpec, "coupling", self._counter("twolevel.coupling_evals", PulseSpec.coupling))
        self._patch(FuchsianSystem, "omega", self._counter("fuchsian.omega_evals", FuchsianSystem.omega))

    def unwrapped_bindings(self) -> list:
        """Names in scattergate namespaces still bound to an original function."""
        return [f"{mod.__name__}.{attr}" for mod in self._namespaces()
                for attr, obj in vars(mod).items()
                if id(obj) in self._wrapped and self._wrapped[id(obj)][0] is obj]

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------

    def span_totals(self) -> dict:
        """name -> [calls, self seconds]; self time excludes child spans."""
        out = {}
        for name, _, _, start, end, child in self.spans:
            tot = out.setdefault(name, [0, 0.0])
            tot[0] += 1
            tot[1] += (end - start) - child
        return out

    def count(self, counter, inside=None) -> int:
        return sum(n for (c, span), n in self.counts.items()
                   if c == counter and (inside is None or span == inside))

    def metrics(self, checks, bytes_out) -> dict:
        """Every per-layer metric, keyed by its BENCHMARK.json name."""
        totals = self.span_totals()

        def calls(name):
            return totals.get(name, [0, 0.0])[0]

        def self_s(name):
            return totals.get(name, [0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for name in ("glm.marchenko_diagonal", "glm.marchenko_kernel", "glm.recover_pulse",
                     "direct1d.solve_scattering", "direct1d.find_bound_states",
                     "twolevel.scattering_matrix", "fuchsian.monodromy", "cli.main"):
            m[f"{name}.calls"] = calls(name)
        for name in ("glm.marchenko_diagonal", "glm.solve_marchenko", "glm.marchenko_kernel",
                     "glm.recover_pulse", "direct1d.solve_scattering",
                     "direct1d.find_bound_states", "dispersion.sample_reflection",
                     "dispersion.reconstruct_transmission", "dispersion.build_scattering_data",
                     "twolevel.scattering_matrix", "twolevel.f_matrix", "fuchsian.monodromy",
                     "cli.main"):
            m[f"{name}.self_s"] = self_s(name)
        m["glm.nystroem_dim.max"] = self.nystroem_max
        m["glm.lu_flops"] = self.computed["glm.lu_flops"]
        m["glm.matrix_bytes"] = self.computed["glm.matrix_bytes"]
        m["glm.kernel_useful_ratio"] = ratio(calls("glm.recover_potential"),
                                             calls("glm.marchenko_kernel"))
        m["direct1d.potential_evals"] = self.count("direct1d.potential_evals")
        m["direct1d.evals_per_solve"] = ratio(
            self.count("direct1d.potential_evals", "direct1d.solve_scattering"),
            calls("direct1d.solve_scattering"))
        m["dispersion.principal_value_integral.calls"] = calls("dispersion.principal_value_integral")
        m["twolevel.coupling_evals"] = self.count("twolevel.coupling_evals")
        m["twolevel.evals_per_smatrix"] = ratio(
            self.count("twolevel.coupling_evals", "twolevel.scattering_matrix"),
            calls("twolevel.scattering_matrix"))
        m["fuchsian.omega_evals"] = self.count("fuchsian.omega_evals")
        algebra = [v for k, v in totals.items() if k.startswith("algebra.")]
        m["algebra.calls"] = sum(v[0] for v in algebra)
        m["algebra.self_s"] = sum(v[1] for v in algebra)
        m["cli.bytes_out"] = bytes_out
        for layer in CHECKED_LAYERS:
            ratios = [c.ratio for c in checks if c.layer == layer]
            m[f"{layer}.err_over_tol.max"] = max(ratios, default=0.0)
        return m

    def span_records(self) -> list:
        return [{"id": i, "name": name, "request": req, "parent": parent,
                 "start": start, "end": end}
                for i, (name, req, parent, start, end, _) in enumerate(self.spans)]
