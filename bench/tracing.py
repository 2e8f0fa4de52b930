"""Span tracing around the public functions of twopatch, from outside the package.

A Tracer keeps every span in memory as ``[name, start, end, parent, op, info]``:
``parent`` is the index of the enclosing span (-1 at top level), ``op`` the id
of the benchmark operation that caused it, and ``info`` whatever the span's
inspector read off the return value (None for most spans). ``installed``
replaces each traced function at every module attribute where callers look it
up and puts the originals back on exit. Nothing under ``src/`` is modified.

``layer_metrics`` turns one pass worth of spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (span name, lookup sites, inspector). A site is "module:attribute"; every
# site of one entry must hold the same function object, so one wrapper
# serves them all and a call through any of them is one span.
_ASSEMBLE = "eigen.assemble"
TRACED = (
    ("cli.cmd_solve", ("twopatch.cli:cmd_solve",), None),
    ("cli.cmd_eigen", ("twopatch.cli:cmd_eigen",), None),
    ("cli.cmd_ibm", ("twopatch.cli:cmd_ibm",), None),
    ("cli.cmd_threshold", ("twopatch.cli:cmd_threshold",), None),
    ("cli.cmd_phase", ("twopatch.cli:cmd_phase",), None),
    ("cli.phase_cells", ("twopatch.cli:phase_cells",), None),
    ("thresholds.find_threshold",
     ("twopatch.cli:find_threshold", "twopatch.thresholds:find_threshold"),
     lambda r: r.iterations),
    ("thresholds.classify", ("twopatch.cli:classify", "twopatch.thresholds:classify"), None),
    ("thresholds.lambda_of", ("twopatch.thresholds:lambda_of",), None),
    ("eigen.lambda_of", ("twopatch.cli:lambda_of", "twopatch.eigen:lambda_of"), None),
    ("eigen.lambda_limit", ("twopatch.cli:lambda_limit", "twopatch.eigen:lambda_limit"),
     lambda r: (r.iterations, len(r.rows), r.residual)),
    ("eigen.principal_eigenpair", ("twopatch.eigen:principal_eigenpair",), None),
    (_ASSEMBLE + "_symmetric_reduced", ("twopatch.eigen:assemble_symmetric_reduced",),
     lambda r: r.matrix.shape[0]),
    (_ASSEMBLE + "_full", ("twopatch.eigen:assemble_full",), lambda r: r.matrix.shape[0]),
    ("eigen.splu", ("twopatch.eigen:splu",), None),
    ("pde.integrate_to", ("twopatch.cli:integrate_to", "twopatch.pde:integrate_to"), None),
    ("grid.laplacian", ("twopatch.pde:laplacian", "twopatch.grid:laplacian"), lambda r: r.size),
    ("grid.integrate", ("twopatch.pde:integrate", "twopatch.grid:integrate"), None),
    ("model.fitness", ("twopatch.model:fitness",), None),
    ("ibm.run_replicates", ("twopatch.cli:run_replicates", "twopatch.ibm:run_replicates"), None),
    ("ibm.run", ("twopatch.ibm:run",),
     lambda r: (float((r.N1[:-1] + r.N2[:-1]).sum()), float((r.N1 + r.N2).max()))),
    ("ibm.reproduction_selection", ("twopatch.ibm:reproduction_selection",), None),
    ("ibm.mutation", ("twopatch.ibm:mutation",), None),
    ("ibm.migration", ("twopatch.ibm:migration",), None),
)


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the current operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, inspect=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if inspect is not None:
                span[5] = inspect(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install a wrapper at every lookup site; restore the originals on exit."""
        saved = []
        try:
            for name, sites, inspect in TRACED:
                wrapper = original = None
                for site in sites:
                    module_name, attr = site.split(":")
                    module = importlib.import_module(module_name)
                    current = getattr(module, attr)
                    if original is None:
                        original = current
                        wrapper = self.wrap(name, original, inspect)
                    elif current is not original:
                        raise RuntimeError(f"{site} is not the function traced as {name}")
                    saved.append((module, attr, current))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (see bench/README.md)."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    selfs: dict[str, float] = {}
    for s, own in zip(spans, _self_times(spans)):
        calls[s[0]] = calls.get(s[0], 0) + 1
        secs[s[0]] = secs.get(s[0], 0.0) + (s[2] - s[1])
        selfs[s[0]] = selfs.get(s[0], 0.0) + own

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return secs.get(name, 0.0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    # Laplacian calls per integrate_to span: two per RHS evaluation.
    lap_per_solve: dict[int, int] = {}
    lap_bytes = 0
    nodes = 0
    for s in spans:
        if s[0] == "grid.laplacian":
            lap_bytes += 16 * s[5]  # one float64 read and one written per node
            nodes = max(nodes, s[5])
            if s[3] >= 0 and spans[s[3]][0] == "pde.integrate_to":
                lap_per_solve[s[3]] = lap_per_solve.get(s[3], 0) + 1
    rhs = sum(lap_per_solve.values()) // 2
    searches = [i for i, s in enumerate(spans) if s[0] == "thresholds.find_threshold"]
    evals_in_search = sum(1 for s in spans if s[0] == "thresholds.lambda_of"
                          and s[3] >= 0 and spans[s[3]][0] == "thresholds.find_threshold")
    ladders = [s[5] for s in spans if s[0] == "eigen.lambda_limit"]
    unknowns = [s[5] for s in spans if s[0].startswith(_ASSEMBLE)]
    runs = [s[5] for s in spans if s[0] == "ibm.run"]
    indgen = sum(r[0] for r in runs)
    stages = ("ibm.reproduction_selection", "ibm.mutation", "ibm.migration")
    assemble_calls = sum(v for k, v in calls.items() if k.startswith(_ASSEMBLE))
    assemble_s = sum(v for k, v in secs.items() if k.startswith(_ASSEMBLE))

    out = {
        "grid.laplacian.calls": n("grid.laplacian"),
        "grid.laplacian.us_per_call": ratio(t("grid.laplacian"), n("grid.laplacian"), 1e6),
        "grid.laplacian.computed_bytes_per_call": ratio(lap_bytes, n("grid.laplacian")),
        "grid.integrate.calls": n("grid.integrate"),
        "grid.integrate.s": t("grid.integrate"),
        "pde.integrate_to.calls": n("pde.integrate_to"),
        "pde.integrate_to.s": t("pde.integrate_to"),
        "pde.self_s": selfs.get("pde.integrate_to", 0.0),
        "pde.rhs_evals": rhs,
        "pde.rhs_evals.max_per_solve": max(lap_per_solve.values(), default=0) // 2,
        "pde.us_per_rhs": ratio(t("pde.integrate_to"), rhs, 1e6),
        "pde.grid_nodes": nodes,
        "model.fitness.calls": n("model.fitness"),
        "model.fitness.s": t("model.fitness"),
        "eigen.lambda_limit.calls": n("eigen.lambda_limit"),
        "eigen.lambda_limit.s": t("eigen.lambda_limit"),
        "eigen.principal_eigenpair.calls": n("eigen.principal_eigenpair"),
        "eigen.principal_eigenpair.s": t("eigen.principal_eigenpair"),
        "eigen.assemble.calls": assemble_calls,
        "eigen.assemble.s": assemble_s,
        "eigen.splu.calls": n("eigen.splu"),
        "eigen.splu.s": t("eigen.splu"),
        "eigen.splu_per_solve": ratio(n("eigen.splu"), n("eigen.principal_eigenpair")),
        "eigen.iterations": sum(r[0] for r in ladders),
        "eigen.rungs": sum(r[1] for r in ladders),
        "eigen.max_unknowns": max(unknowns, default=0),
        "eigen.residual_max": max((r[2] for r in ladders), default=0.0),
        "thresholds.find_threshold.calls": len(searches),
        "thresholds.find_threshold.s": t("thresholds.find_threshold"),
        "thresholds.lambda_evals": n("thresholds.lambda_of"),
        "thresholds.lambda_evals_per_search": ratio(evals_in_search, len(searches)),
        "thresholds.bisection_iters": sum(spans[i][5] for i in searches),
        "thresholds.classify.calls": n("thresholds.classify"),
        "ibm.run.calls": n("ibm.run"),
        "ibm.run.s": t("ibm.run"),
        "ibm.self_s": selfs.get("ibm.run", 0.0),
        "ibm.indgen": indgen,
        "ibm.ns_per_indgen": ratio(t("ibm.run"), indgen, 1e9),
        "ibm.peak_pop": max((r[1] for r in runs), default=0.0),
        "cli.self_s": sum(v for k, v in selfs.items() if k.startswith("cli.")),
        "trace.spans": len(spans),
    }
    for stage in stages:
        out[stage + ".s"] = t(stage)
        out[stage + ".ns_per_indgen"] = ratio(t(stage), indgen, 1e9)
    return out
