"""Outside-in tracing of smoothfem's layers for the benchmark's traced pass.

The tracer wraps public functions of each layer where their callers look
them up (``smoothfem.benchmarks.assemble_method``,
``smoothfem.assembly.build_smoothing_domains``, the ``spla`` module seen by
``smoothfem.solve`` and ``smoothfem.hyperelastic``...) and records one span
per call: name, start, end and parent, all tagged with the pass's run id.
``Discretization`` builds domains, gradients and overlaps lazily inside
whatever first asks for them, so spans nest and every time metric is self
time: a span's duration minus that of its direct children.  Counts are
recorded at the same boundaries.  Nothing in the program is edited.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "benchmarks"

# span name -> per-layer time metric (self time, seconds)
TIME_METRICS = {
    ROOT: "benchmarks.self_s",
    "mesh.time": "mesh.time_s",
    "dualmesh.topology": "dualmesh.topology_s",
    "dualmesh.micro": "dualmesh.micro_s",
    "dualmesh.domains": "dualmesh.domains_s",
    "dualmesh.overlap": "dualmesh.overlap_s",
    "dualmesh.mesh_size": "dualmesh.mesh_size_s",
    "smoothing.gradient": "smoothing.gradient_s",
    "assembly.discretize": "assembly.discretize_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.loads": "assembly.loads_s",
    "assembly.gram": "assembly.gram_s",
    "solve.solve": "solve.solve_s",
    "solve.factorize": "solve.factorize_s",
    "solve.infsup": "solve.infsup_s",
    "hyperelastic.setup": "hyperelastic.setup_s",
    "hyperelastic.newton": "hyperelastic.newton_s",
    "hyperelastic.residual_tangent": "hyperelastic.residual_tangent_s",
    "hyperelastic.factorize": "hyperelastic.factorize_s",
    "analysis.error_norms": "analysis.error_norms_s",
    "analysis.post": "analysis.post_s",
}

# per-layer counts: name -> unit; every one must repeat exactly
COUNT_METRICS = {
    "benchmarks.cells": "count",
    "mesh.elements": "count",
    "dualmesh.micro_cells": "count",
    "dualmesh.domain_builds": "count",
    "smoothing.gradient_builds": "count",
    "smoothing.gradient_nnz": "count",
    "assembly.bundles": "count",
    "assembly.nnz": "count",
    "solve.factorizations": "count",
    "solve.fill_nnz": "count",
    "solve.order": "count",
    "solve.refine_rounds": "count",
    "solve.infsup_dense_mb": "MB",
    "hyperelastic.residual_calls": "count",
    "hyperelastic.factorizations": "count",
    "hyperelastic.fill_nnz": "count",
    "hyperelastic.newton_iterations": "count",
    "hyperelastic.load_steps_attempted": "count",
    "hyperelastic.step_accept_ratio": "ratio",
    "trace.spans": "count",
}


class Tracer:
    """In-memory span and count recorder for one traced pass."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []   # [name, start, end, parent index or -1] per call
        self._stack = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, key, value=1):
        self.counts[key] += value

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(tracer, result, args)`` counts."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Self seconds per span name, summed over its spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def inclusive_times(self):
        """Seconds per span name counting children, outermost spans only."""
        out = defaultdict(float)
        names = [s[0] for s in self.spans]
        for name, start, end, parent in self.spans:
            p, nested = parent, False
            while p >= 0:
                if names[p] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                out[name] += end - start
        return out

    def metrics(self):
        """Every per-layer time and count metric of this pass."""
        out = {m: 0.0 for m in TIME_METRICS.values()}
        for name, seconds in self.self_times().items():
            out[TIME_METRICS[name]] += seconds
        for key in COUNT_METRICS:
            out[key] = float(self.counts.get(key, 0.0))
        out["solve.infsup_dense_mb"] = self.maxima["solve.infsup_dense_mb"]
        attempted = self.counts.get("hyperelastic.load_steps_attempted", 0)
        accepted = self.counts.get("hyperelastic.load_steps_accepted", 0)
        out["hyperelastic.step_accept_ratio"] = (
            accepted / attempted if attempted else 0.0)
        out["trace.spans"] = float(len(self.spans))
        return out

    def check_nesting(self):
        """Problems with the span tree; empty when every span nests."""
        problems = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None or end < start:
                problems.append(f"span {i} {name} not closed")
            elif parent >= 0:
                pname, pstart, pend, _ = self.spans[parent]
                if parent >= i or start < pstart or end > pend:
                    problems.append(f"span {i} {name} outside parent {pname}")
            elif name != ROOT:
                problems.append(f"span {i} {name} has no parent")
        return problems


# ----------------------------------------------------------------------
# counts recorded after a wrapped call returns
# ----------------------------------------------------------------------

def _count(key):
    def after(tracer, result, args):
        tracer.add(key)
    return after


def _mesh_elements(tracer, mesh, args):
    tracer.add("mesh.elements", mesh.n_elements)


def _micro_cells(tracer, micro, args):
    tracer.add("dualmesh.micro_cells", micro.n_cells)


def _gradients(tracer, G, args):
    tracer.add("smoothing.gradient_builds")
    tracer.add("smoothing.gradient_nnz", sum(g.nnz for g in G))


def _bundle(tracer, bundle, args):
    tracer.add("assembly.bundles")
    C = bundle.C          # a diagonal vector or a sparse pressure mass
    c_nnz = C.nnz if hasattr(C, "nnz") else C.size
    tracer.add("assembly.nnz", bundle.A.nnz + bundle.B.nnz + c_nnz)


def _infsup_bytes(tracer, result, args):
    # computed bytes of the dense arrays infsup_measure forms: B^T and
    # G^-1 B^T (n_free x n_p), then S and its scaled copy T (n_p x n_p)
    _, B, _, fixed, n_disp = args[:5]
    n_p = B.shape[0]
    n_free = n_disp - len(set(int(i) for i in fixed))
    mb = 8.0 * (2 * n_free * n_p + 2 * n_p * n_p) / 2 ** 20
    tracer.maxima["solve.infsup_dense_mb"] = max(
        tracer.maxima["solve.infsup_dense_mb"], mb)


def _newton_step(fn, tracer):
    """Count-only wrapper of one Newton load step (no span)."""
    def step(*args, **kwargs):
        tracer.add("hyperelastic.load_steps_attempted")
        u, record = fn(*args, **kwargs)
        tracer.add("hyperelastic.load_steps_accepted")
        tracer.add("hyperelastic.newton_iterations", record["iterations"])
        return u, record
    step.__wrapped__ = fn
    return step


class _CountingLU:
    """A SuperLU factor whose solves are counted as refinement rounds."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        if self._tracer.current() == "solve.solve":
            self._tracer.add("solve.refine_rounds")
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SplaView:
    """The ``scipy.sparse.linalg`` module as one smoothfem module sees it,
    with ``splu`` traced as that layer's factorization."""

    def __init__(self, spla, tracer, layer):
        self._spla = spla
        self._tracer = tracer
        self._layer = layer

    def splu(self, A, *args, **kwargs):
        with self._tracer.span(f"{self._layer}.factorize"):
            lu = self._spla.splu(A, *args, **kwargs)
        self._tracer.add(f"{self._layer}.factorizations")
        self._tracer.add(f"{self._layer}.fill_nnz", lu.nnz)
        if self._layer == "solve":
            self._tracer.add("solve.order", lu.shape[0])
            return _CountingLU(lu, self._tracer)
        return lu

    def __getattr__(self, name):
        return getattr(self._spla, name)


def install(tracer):
    """Patch every traced name; returns a function that restores them."""
    import smoothfem.analysis as analysis
    import smoothfem.assembly as assembly
    import smoothfem.benchmarks as benchmarks
    import smoothfem.dualmesh as dualmesh
    import smoothfem.hyperelastic as hyperelastic
    import smoothfem.solve as solve

    w = tracer.wrap
    patches = [
        (benchmarks, "generate_cook", w("mesh.time", benchmarks.generate_cook,
                                        _mesh_elements)),
        (benchmarks, "generate_annulus",
         w("mesh.time", benchmarks.generate_annulus, _mesh_elements)),
        (benchmarks, "generate_block",
         w("mesh.time", benchmarks.generate_block, _mesh_elements)),
        (benchmarks, "distort_mesh",
         w("mesh.time", benchmarks.distort_mesh)),
        (assembly.Discretization, "__init__",
         w("assembly.discretize", assembly.Discretization.__init__)),
        (assembly, "build_topology",
         w("dualmesh.topology", assembly.build_topology)),
        (assembly, "build_micro_decomposition",
         w("dualmesh.micro", assembly.build_micro_decomposition,
           _micro_cells)),
        (assembly, "build_pressure_cells",
         w("dualmesh.micro", assembly.build_pressure_cells)),
        (assembly, "build_smoothing_domains",
         w("dualmesh.domains", assembly.build_smoothing_domains,
           _count("dualmesh.domain_builds"))),
        (dualmesh.PressureCellSet, "overlap_with_domains",
         w("dualmesh.overlap", dualmesh.PressureCellSet.overlap_with_domains)),
        (analysis, "mesh_size", w("dualmesh.mesh_size", analysis.mesh_size)),
        (assembly, "build_smoothed_gradient",
         w("smoothing.gradient", assembly.build_smoothed_gradient,
           _gradients)),
        (benchmarks, "assemble_method",
         w("assembly.assemble", benchmarks.assemble_method, _bundle)),
        (benchmarks, "assemble_loads",
         w("assembly.loads", benchmarks.assemble_loads)),
        (benchmarks, "assemble_h1_gram",
         w("assembly.gram", benchmarks.assemble_h1_gram)),
        (benchmarks, "solve_bundle",
         w("solve.solve", benchmarks.solve_bundle)),
        (benchmarks, "infsup_measure",
         w("solve.infsup", benchmarks.infsup_measure, _infsup_bytes)),
        (solve, "spla", _SplaView(solve.spla, tracer, "solve")),
        (hyperelastic.SmoothedHyperProblem, "__init__",
         w("hyperelastic.setup", hyperelastic.SmoothedHyperProblem.__init__)),
        (benchmarks, "newton_load_stepping",
         w("hyperelastic.newton", benchmarks.newton_load_stepping)),
        (hyperelastic, "_newton", _newton_step(hyperelastic._newton, tracer)),
        (hyperelastic.SmoothedHyperProblem, "residual_tangent",
         w("hyperelastic.residual_tangent",
           hyperelastic.SmoothedHyperProblem.residual_tangent,
           _count("hyperelastic.residual_calls"))),
        (hyperelastic, "spla", _SplaView(hyperelastic.spla, tracer,
                                         "hyperelastic")),
    ]
    for fn in ("error_displacement", "error_pressure", "error_energy"):
        patches.append((benchmarks, fn, w("analysis.error_norms",
                                          getattr(benchmarks, fn))))
    for fn in ("tip_displacement", "fit_rate", "richardson_limit"):
        patches.append((benchmarks, fn, w("analysis.post",
                                          getattr(benchmarks, fn))))

    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    for owner, name, new in patches:
        setattr(owner, name, new)

    def restore():
        for owner, name, old in saved:
            setattr(owner, name, old)

    return restore
