"""Outside-in tracing of ``sdr``: spans recorded around calls into each
layer's public functions, without editing the package.

The package binds its collaborators with ``from .linalg import ...``, so a
function has to be rebound in every module that imported it, not only where
it is defined.  ``SITES`` lists each (module, attribute) pair to rebind.
Spans are kept in memory and written as JSONL when the run ends.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import time
from collections import defaultdict

LAYERS = ("cli", "simulation", "data", "methods", "intrinsic", "linalg",
          "regression")
METHODS = ("ols", "pca", "bair", "pv", "pcps", "pls", "barshan", "lspca",
           "sppca")
SERIALIZERS = ("report_to_csv", "report_to_json", "report_to_table",
               "sweep_to_csv", "sweep_to_json", "curves_to_csv",
               "spectrum_to_csv", "result_to_json")
#: The gamma-tuned fits that methods.fit_method runs once per grid point.
GAMMA_FITS = ("fit_lspca", "fit_pls_extended", "fit_barshan_extended")

#: span name -> modules whose binding of the function is replaced
SITES = {
    "simulation.generate_trial": ("sdr.simulation",),
    "data.load_csv": ("sdr.realdata",),
    "data.fit_centering": ("sdr.simulation", "sdr.realdata"),
    "data.reduce": ("sdr.methods",),
    "methods.fit_method": ("sdr.simulation", "sdr.realdata"),
    "intrinsic.fit_lspca": ("sdr.methods", "sdr.simulation"),
    "intrinsic.fit_pls_extended": ("sdr.methods", "sdr.simulation"),
    "intrinsic.fit_barshan_extended": ("sdr.methods", "sdr.simulation"),
    "intrinsic.fit_sppca": ("sdr.methods",),
    # methods.pca_reducer imports sym_eig_topk from linalg at call time
    "linalg.sym_eig_topk": ("sdr.linalg", "sdr.intrinsic", "sdr.wrappers",
                            "sdr.realdata"),
    "linalg.stiefel_step": ("sdr.intrinsic",),
    "regression.ols_fit": ("sdr.methods", "sdr.wrappers"),
    "regression.mse": ("sdr.methods", "sdr.wrappers"),
}
SITES.update({f"cli.serialize.{s}": ("sdr.cli",) for s in SERIALIZERS})


class Tracer:
    """Records spans [id, parent, pass, name, start, end, attrs] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._undo: list = []
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self.pass_id, name,
                time.perf_counter(), None, attrs or {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, module: str):
        describe = _DESCRIBE.get(name)
        gamma_point = module == "sdr.methods" and name.split(".")[-1] in GAMMA_FITS

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                describe(span[6], args, kwargs, result)
            if gamma_point:
                span[6]["gamma_point"] = True
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every site; names a refactor removed are listed in
        ``missing`` and left untraced."""
        for name, modules in SITES.items():
            attr = name.split(".")[-1]
            for modname in modules:
                module = importlib.import_module(modname)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._undo.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, modname))
        original = pathlib.Path.write_text
        tracer = self

        def write_text(path, data, *args, **kwargs):
            span = tracer.begin("cli.write", {"bytes": len(data.encode("utf-8"))})
            try:
                return original(path, data, *args, **kwargs)
            finally:
                tracer.end(span)

        self._undo.append((pathlib.Path, "write_text", original))
        pathlib.Path.write_text = write_text

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: pathlib.Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, pid, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "trace": pid,
                                     "name": name, "start_s": t0, "end_s": t1,
                                     **attrs}) + "\n")


def _describe_fit_method(attrs, args, kwargs, result):
    attrs["method"] = args[0] if args else kwargs.get("name")


def _describe_eig(attrs, args, kwargs, result):
    s = args[0] if args else kwargs["s"]
    attrs["p"] = int(s.shape[0])
    attrs["k"] = int(args[1] if len(args) > 1 else kwargs["k"])


def _describe_lspca(attrs, args, kwargs, result):
    sol = result[1]
    attrs["iters"] = int(sol.n_iters)
    attrs["accepted"] = max(len(sol.objective_trace) - 1, 0)
    attrs["converged"] = bool(sol.converged)


def _describe_sppca(attrs, args, kwargs, result):
    attrs["iters"] = int(result.hyperparams["iterations"])
    attrs["converged"] = bool(result.hyperparams["converged"])


_DESCRIBE = {
    "methods.fit_method": _describe_fit_method,
    "linalg.sym_eig_topk": _describe_eig,
    "intrinsic.fit_lspca": _describe_lspca,
    "intrinsic.fit_sppca": _describe_sppca,
}


def _dur(span) -> float:
    return span[5] - span[4]


def layer_of(name: str) -> str:
    return name.split(".")[0]


def summarize(spans: list[list]) -> dict:
    """Per-layer metrics of one pass's spans: counts, busy time (a span not
    nested in another span of its layer) and self time (a span minus its
    child spans)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
    child_time = defaultdict(float)
    index = {s[0]: s for s in spans}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += _dur(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(_dur(s) for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s[6].get(key, 0) for s in by_name.get(name, ()))

    m = {}
    for name in ("simulation.generate_trial", "data.load_csv",
                 "data.fit_centering", "data.reduce", "methods.fit_method",
                 "intrinsic.fit_lspca", "intrinsic.fit_pls_extended",
                 "intrinsic.fit_barshan_extended", "intrinsic.fit_sppca",
                 "linalg.sym_eig_topk", "linalg.stiefel_step",
                 "regression.ols_fit", "regression.mse", "cli.write"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = busy(name)
    m["cli.serialize.s"] = sum(busy(f"cli.serialize.{s}") for s in SERIALIZERS)
    m["cli.bytes_written"] = attr_sum("cli.write", "bytes")

    fits = by_name.get("methods.fit_method", ())
    for method in METHODS:
        m[f"methods.fit_method.{method}.s"] = sum(
            _dur(s) for s in fits if s[6].get("method") == method)
    m["methods.gamma_points"] = sum(
        1 for f in GAMMA_FITS for s in by_name.get(f"intrinsic.{f}", ())
        if s[6].get("gamma_point"))
    m["methods.self_s"] = sum(_dur(s) - child_time[s[0]] for s in fits)

    lspca = by_name.get("intrinsic.fit_lspca", ())
    m["intrinsic.lspca.iters"] = attr_sum("intrinsic.fit_lspca", "iters")
    m["intrinsic.lspca.backtracks"] = (calls("linalg.stiefel_step")
                                       - attr_sum("intrinsic.fit_lspca", "accepted"))
    m["intrinsic.lspca.unconverged"] = sum(1 for s in lspca if not s[6]["converged"])
    sppca = by_name.get("intrinsic.fit_sppca", ())
    m["intrinsic.sppca.em_iters"] = attr_sum("intrinsic.fit_sppca", "iters")
    m["intrinsic.sppca.unconverged"] = sum(1 for s in sppca if not s[6]["converged"])

    eig = by_name.get("linalg.sym_eig_topk", ())
    computed = sum(s[6]["p"] for s in eig)
    m["linalg.sym_eig_topk.used_frac"] = (
        sum(s[6]["k"] for s in eig) / computed if computed else 0.0)
    # dense symmetric eigendecomposition with vectors: about 9 p^3 flops
    # (Golub & Van Loan); derived from matrix sizes, not counted
    m["linalg.sym_eig_topk.flops_computed"] = sum(9 * s[6]["p"] ** 3 for s in eig)

    for layer in LAYERS:
        own = [s for s in spans if layer_of(s[3]) == layer]
        outer = [s for s in own if not _has_ancestor_in(s, layer, index)]
        m[f"layer.{layer}.spans"] = len(own)
        m[f"layer.{layer}.busy_s"] = sum(_dur(s) for s in outer)
        m[f"layer.{layer}.self_s"] = sum(_dur(s) - child_time[s[0]] for s in own)
    return m


def _has_ancestor_in(span, layer: str, index: dict) -> bool:
    parent = span[1]
    while parent is not None:
        p = index[parent]
        if layer_of(p[3]) == layer:
            return True
        parent = p[1]
    return False


def is_count(name: str) -> bool:
    """True for metrics that must repeat exactly across traced passes of one
    input: everything but times and ratios."""
    return not (name.endswith(".s") or name.endswith("_s")
                or name.endswith("used_frac"))
