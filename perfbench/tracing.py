"""Outside-in tracing of the package's public names.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``fisherinfo`` module namespace that holds it (``information_from_outcomes``
is bound in ``fisher``, ``optimize`` and ``dpi``; ``minimize`` in
``optimize``), and wraps methods and constructors on their class.  A
span whose name the package no longer has is skipped and reported.  Spans
(name, start, end, parent, op id) stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (span name, module, attribute); "Class.method" patches the class, and a
# bare class name wraps its constructor
SPANS = (
    ("cli.main", "cli", "main"),
    ("documents.load_model_document", "documents", "load_model_document"),
    ("documents.load_povm_document", "documents", "load_povm_document"),
    ("quantum.DensityMatrix", "quantum", "DensityMatrix"),
    ("quantum.Povm", "quantum", "Povm"),
    ("quantum.KrausChannel", "quantum", "KrausChannel"),
    ("quantum.born_probabilities", "quantum", "born_probabilities"),
    ("quantum.apply_channel_matrix", "quantum", "apply_channel_matrix"),
    ("linalg.as_complex_matrix", "linalg", "as_complex_matrix"),
    ("linalg.eig_hermitian", "linalg", "eig_hermitian"),
    ("models.UnitaryFamily.state_at", "models", "UnitaryFamily.state_at"),
    ("models.UnitaryFamily.derivative_at", "models", "UnitaryFamily.derivative_at"),
    ("models.ComposedModel.state_at", "models", "ComposedModel.state_at"),
    ("models.ComposedModel.derivative_at", "models", "ComposedModel.derivative_at"),
    ("fisher.classical_fisher", "fisher", "classical_fisher"),
    ("fisher.information_from_outcomes", "fisher", "information_from_outcomes"),
    ("fisher.bayesian_information", "fisher", "bayesian_information"),
    ("fisher.sld_solve", "fisher", "sld_solve"),
    ("fisher.sld_optimal_povm", "fisher", "sld_optimal_povm"),
    ("bayes.parse_prior_spec", "bayes", "parse_prior_spec"),
    ("bayes.likelihood_table", "bayes", "likelihood_table"),
    ("bayes.bayes_risk", "bayes", "bayes_risk"),
    ("optimize.maximize_fisher", "optimize", "maximize_fisher"),
    ("optimize.minimize", "optimize", "minimize"),
    ("dpi.classical_dpi_suite", "dpi", "classical_dpi_suite"),
    ("dpi.quantum_dpi_suite", "dpi", "quantum_dpi_suite"),
    ("dpi.postprocessed_fisher", "dpi", "postprocessed_fisher"),
    ("sampling.random_hermitian", "sampling", "random_hermitian"),
    ("sampling.random_channel", "sampling", "random_channel"),
    ("sampling.random_projective_povm", "sampling", "random_projective_povm"),
)

# exceptions counted where they leave a span: (counter, span, exception type)
RAISED = (
    ("fisher.singular_raised", "fisher.information_from_outcomes", "SingularOutcome"),
    ("fisher.sld_offsupport_raised", "fisher.sld_solve", "DerivativeOffSupport"),
)

# where a span's function is found if the package imports it lazily, inside
# a function body: such an import reads the name from this module at call time
LAZY_OWNERS = {"optimize.minimize": "scipy.optimize"}

IMPORT_COUNTERS = ("import.fisherinfo_ms", "import.scipy_optimize_ms")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "ms" for name in IMPORT_COUNTERS}
    for name, _, _ in SPANS:
        units.update({f"{name}.calls": "count", f"{name}.total_ms": "ms",
                      f"{name}.self_ms": "ms"})
    units.update({name: "count" for name, _, _ in RAISED})
    units.update({"optimize.nfev": "count", "optimize.nit": "count",
                  "optimize.converged_ratio": "ratio", "trace.overhead_ratio": "ratio"})
    return units


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index, op id)
        self.stack = []
        self.op_id = -1      # each span opened with an empty stack starts an op
        self.raised = Counter()
        self.minimize = Counter()
        self.missing = []    # spans the loaded package does not have

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self.op_id += 1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent, self.op_id)
                stack.pop()
            if name == "optimize.minimize":
                self.minimize.update(calls=1, nfev=int(getattr(result, "nfev", 0)),
                                     nit=int(getattr(result, "nit", 0)),
                                     converged=int(bool(getattr(result, "success", False))))
            return result

        return traced

    def install(self) -> None:
        """Wrap every span the loaded package has.  A module, class or
        attribute that is absent is listed in ``missing`` and reports 0 calls."""
        modules = [m for n, m in sys.modules.items()
                   if n == "fisherinfo" or n.startswith("fisherinfo.")]
        for name, module, attr in SPANS:
            owner = sys.modules.get(f"fisherinfo.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                fn = vars(cls).get(method) if isinstance(cls, type) else None
                if fn is None:
                    self.missing.append(name)
                else:
                    setattr(cls, method, self._wrap(name, fn))
                continue
            target = getattr(owner, attr, None)
            if target is None and name in LAZY_OWNERS:
                owner = sys.modules.get(LAZY_OWNERS[name])
                target = getattr(owner, attr, None)
            if target is None:
                self.missing.append(name)
            elif isinstance(target, type):
                target.__init__ = self._wrap(name, target.__init__)
            else:
                wrapper = self._wrap(name, target)
                for mod in modules if owner in modules else [owner, *modules]:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, key, wrapper)

    def metrics(self) -> dict:
        calls, total, child = Counter(), Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_ms"] = total[name] * 1e3
            out[f"{name}.self_ms"] = own[name] * 1e3
        for counter, span, exc in RAISED:
            out[counter] = self.raised[span, exc]
        runs = self.minimize["calls"]
        out["optimize.nfev"] = self.minimize["nfev"]
        out["optimize.nit"] = self.minimize["nit"]
        out["optimize.converged_ratio"] = self.minimize["converged"] / runs if runs else 0.0
        return out

    def write(self, path: str) -> None:
        """One JSON list per span; a span's id is its line number after the header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent_id", "op_id"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
