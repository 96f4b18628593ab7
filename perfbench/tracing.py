"""Span recorder that wraps fria's public functions from outside the package.

Each target function is replaced, for the duration of one traced pass, in
every ``fria`` module attribute that is bound to it.  ``fria.fem`` calls
``conjugate_gradients`` through its own globals while ``fria.oracle`` holds
its own reference from ``from .fem import ...``; replacing by identity in
every module covers both without listing the import sites.  A target that
no longer exists is recorded as absent and the pass runs without it.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 at
the root).  A name's self time is the summed duration of its spans minus
the part their direct child spans cover.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# (home module, attribute, span name); several targets may share a span name
TARGETS = (
    ("fria.cli", "main", "cli.main"),
    ("fria.majorant", "run_refinement_experiment", "majorant.experiment"),
    ("fria.majorant", "evaluate_majorant", "majorant.evaluate"),
    ("fria.mesh", "build_lshape", "mesh.build"),
    ("fria.mesh", "build_unit_square", "mesh.build"),
    ("fria.mesh", "validate", "mesh.validate"),
    ("fria.fem", "solve_diffusion", "fem.solve"),
    ("fria.fem", "solve_dirichlet", "fem.solve"),
    ("fria.fem", "assemble_stiffness", "fem.assemble"),
    ("fria.fem", "assemble_mass", "fem.assemble"),
    ("fria.fem", "reduce_system", "fem.reduce"),
    ("fria.fem", "conjugate_gradients", "fem.cg"),
    ("fria.flux", "rt_average", "flux.average"),
    ("fria.flux", "flux_defect_norms", "flux.norms"),
    ("fria.flux", "residual_norm", "flux.norms"),
    ("fria.flux", "defect_norm", "flux.norms"),
    ("fria.manufactured", "solve", "manufactured.solve"),
    ("fria.manufactured", "majorant_total", "manufactured.majorant"),
    ("fria.manufactured", "exact_energy_error", "manufactured.exact_error"),
    ("fria.oracle", "estimate_cfa", "oracle.cfa"),
    ("fria.friedrichs", "best_bound", "friedrichs.best_bound"),
    ("fria.friedrichs", "mikhlin_bound", "friedrichs.explicit"),
    ("fria.friedrichs", "coarse_bound", "friedrichs.explicit"),
    ("fria.friedrichs", "diagonal_bound", "friedrichs.explicit"),
    ("fria.friedrichs", "full_bound", "friedrichs.explicit"),
    ("fria.friedrichs", "semidef_bound", "friedrichs.explicit"),
    ("fria.friedrichs", "coercivity_threshold", "friedrichs.coercivity"),
    ("fria.maxwell", "maxwell_coarse", "maxwell.bound"),
    ("fria.maxwell", "maxwell_diagonal", "maxwell.bound"),
    ("fria.maxwell", "maxwell_full", "maxwell.bound"),
    ("fria.weights", "parse_weight", "weights.parse"),
    ("fria.weights", "tilde_reduction", "weights.tilde"),
    ("fria.weights", "sym_eigenvalues", "weights.eig"),
)

ROOT_SPAN = "bench.pass"


def _mesh_label(mesh):
    domain = getattr(mesh, "domain", "?")
    if domain == "lshape":
        return f"L{getattr(mesh, 'level', '?')}"
    return f"n{getattr(mesh, 'n', '?')}"


def _system_nnz(system):
    nnz = getattr(system, "nnz", None)
    if nnz is None:
        vals = getattr(system, "vals", None)
        nnz = 0 if vals is None else len(vals)
    return int(nnz)


class Tracer:
    """Spans, call counts and layer counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.solves = []  # (mesh label, CG iterations, final relative residual)
        self.absent = []
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    def run_root(self, fn, *args):
        """Run ``fn(*args)`` under the root span of the pass."""
        self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close()

    def self_times(self):
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out

    # -- counters fed from the wrapped calls ---------------------------
    def _on_return(self, name, args, result):
        if name == "mesh.build":
            self.counts["mesh.triangles"] += getattr(result, "num_triangles", 0)
        elif name == "fem.solve" and not self._inside("fem.solve"):
            self.solves.append(
                (
                    _mesh_label(getattr(result, "mesh", None)),
                    int(getattr(result, "iterations", 0)),
                    float(getattr(result, "residual", 0.0)),
                )
            )
        elif name == "fem.cg":
            iters = int(result[1]) if isinstance(result, tuple) and len(result) > 1 else 0
            system = args[0] if args else None
            self.counts["fem.cg_spmv_flops"] += 2 * _system_nnz(system) * iters
            if self._inside("oracle.cfa"):
                self.counts["oracle.inner_solves"] += 1
                self.counts["oracle.inner_iters"] += iters
            else:
                self.counts["fem.cg_iters"] += iters
        elif name == "oracle.cfa":
            self.counts["oracle.outer_iters"] += getattr(result, "iterations", 0)

    def _on_raise(self, name, exc):
        kind = type(exc).__name__
        if name == "fem.cg" and self._inside("oracle.cfa") and kind == "SolverError":
            self.counts["oracle.inner_solves"] += 1
            self.counts["oracle.backoffs"] += 1
        elif kind == "BoundUnavailable" and name.split(".")[0] in ("friedrichs", "maxwell"):
            self.counts[name.split(".")[0] + ".refused"] += 1

    def _wrap(self, fn, name, target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[target] += 1
            self.calls[name] += 1
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close()
                self._on_raise(name, exc)
                raise
            self._close()
            self._on_return(name, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def install(self):
        """Replace every fria binding of each target by its traced wrapper."""
        homes = {}
        for home, _, _ in TARGETS:
            try:
                homes[home] = importlib.import_module(home)
            except ImportError:
                homes[home] = None
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "fria" or key.startswith("fria."))
        ]
        for home, attr, name in TARGETS:
            fn = getattr(homes[home], attr, None)
            if not callable(fn):
                self.absent.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(fn, name, f"{home}.{attr}")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()


def layer_metrics(tracer):
    """Per-layer figures of one traced pass, keyed as in BENCHMARK.json.

    Times ending in ``_s`` are self times; ``_us`` figures are self
    microseconds per call.  A layer the pass never entered reads 0.
    """
    self_s = tracer.self_times()
    calls = tracer.calls
    counts = tracer.counts

    def per_call_us(name):
        return 1e6 * self_s[name] / calls[name] if calls[name] else 0.0

    norm_calls = calls["fria.flux.flux_defect_norms"]
    out = {
        "mesh.build_s": self_s["mesh.build"],
        "mesh.validate_s": self_s["mesh.validate"],
        "mesh.triangles": counts["mesh.triangles"],
        "fem.assemble_s": self_s["fem.assemble"],
        "fem.reduce_s": self_s["fem.reduce"],
        "fem.cg_s": self_s["fem.cg"],
        "fem.solve_s": self_s["fem.solve"],
        "fem.cg_iters": counts["fem.cg_iters"],
        "fem.cg_relres": max((res for _, _, res in tracer.solves), default=0.0),
        "fem.cg_spmv_flops": counts["fem.cg_spmv_flops"],
        "flux.average_s": self_s["flux.average"],
        "flux.norms_s": self_s["flux.norms"],
        "flux.norm_calls": norm_calls,
        "majorant.norm_reuse": calls["flux.average"] / norm_calls if norm_calls else 0.0,
        "majorant.self_s": self_s["majorant.experiment"] + self_s["majorant.evaluate"],
        "manufactured.solve_s": self_s["manufactured.solve"],
        "manufactured.majorant_s": self_s["manufactured.majorant"],
        "manufactured.exact_error_s": self_s["manufactured.exact_error"],
        "oracle.cfa_s": self_s["oracle.cfa"],
        "oracle.outer_iters": counts["oracle.outer_iters"],
        "oracle.inner_solves": counts["oracle.inner_solves"],
        "oracle.inner_iters": counts["oracle.inner_iters"],
        "oracle.backoffs": counts["oracle.backoffs"],
        "friedrichs.best_bound_us": per_call_us("friedrichs.best_bound"),
        "friedrichs.explicit_us": per_call_us("friedrichs.explicit"),
        "friedrichs.refused": counts["friedrichs.refused"],
        "maxwell.bound_us": per_call_us("maxwell.bound"),
        "maxwell.refused": counts["maxwell.refused"],
        "weights.parse_us": per_call_us("weights.parse"),
        "weights.tilde_us": per_call_us("weights.tilde"),
        "weights.eig_us": per_call_us("weights.eig"),
        "cli.self_s": self_s["cli.main"],
        "bench.self_s": self_s[ROOT_SPAN],
        "trace.spans": len(tracer.spans),
        "trace.absent": len(tracer.absent),
    }
    for label, iters, _ in tracer.solves:
        if label.startswith("L"):
            out[f"fem.cg_iters.{label}"] = iters
    return out
