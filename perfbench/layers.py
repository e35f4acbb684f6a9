"""Per-layer tracing of qflab from outside the package, and the layer metrics.

:func:`install` wraps, at run time, the public functions of each qflab module
and the product and arithmetic methods of ``LinOp`` and ``BlockOp``.  Every
wrapped call records a :class:`spans.Span` (name, layer, start, end, parent,
request) kept in memory, with its ``tracemalloc`` high-water mark.  Nothing
under ``src/`` changes.  :func:`layer_metrics` turns the spans into the
``per_layer`` metrics of BENCHMARK.json.

Timing conventions: a ``*_s`` metric is the inclusive time of the outermost
calls in its named set (a call nested in another call of the same set counts
once); ``cli.self_s`` and ``finance.pde_step_us`` use self time, the span's
duration minus what its child spans cover.  A layer that does not run reports
0 for each of its metrics.
"""

import functools
import hashlib
import inspect
import sys
import time
import tracemalloc

from spans import Span, outermost, self_times, under, union_length

LAYERS = ("cli", "grid", "operators", "hamiltonians", "susy", "finance", "montecarlo")
LINOP_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__",
                 "adjoint", "apply", "max_abs")
BLOCKOP_METHODS = ("__add__", "__sub__", "__rmul__", "__matmul__", "adjoint", "apply", "max_abs")

MATMUL = "operators.LinOp.__matmul__"
CONSTRUCT = {f"operators.{n}" for n in (
    "identity", "diagonal", "position_operator", "momentum_operator", "momentum_squared",
    "deformed_momentum", "deformed_momentum_by_similarity")}
ELEMENTWISE = {f"operators.LinOp.{m}" for m in LINOP_METHODS if m != "__matmul__"} | {
    "operators.adjoint", "operators.hermiticity_defect"}
HAMILTONIAN_BUILD = {f"hamiltonians.{n}" for n in (
    "build_h1", "build_h2", "build_h3", "build_h4", "build_all", "build_from_superpotential")}
BLOCK_ALGEBRA = {f"susy.BlockOp.{m}" for m in BLOCKOP_METHODS} | {f"susy.{n}" for n in (
    "block_commutator", "block_anticommutator", "supercharge_2x2", "supercharges_4x4",
    "superhamiltonian_2x2")}
EIGENSOLVE = {"susy.partner_spectra", "susy.dirichlet_eigenvalues", "susy.real_spectrum_check"}
FINANCE_HAMILTONIAN = {"finance.bs_hamiltonian", "finance.bsg_hamiltonian",
                       "finance.bsb_hamiltonian"}
PRICE_PDE = "finance.price_pde"
NORMALS = "montecarlo.standard_normals"
KNOCKOUT = "montecarlo.knockout_terminal"
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Span recorder.  Allocation peaks are read from ``tracemalloc`` when it runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self.linop_bytes = 0
        self._open: list[int] = []
        self._mem: list[list[int]] = []  # [allocated at entry, high-water mark] per open span

    def _enter(self, name: str, layer: str) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent, request=self.request))
        self._open.append(len(self.spans) - 1)
        self._mem.append([current, current])
        return self._open[-1]

    def _exit(self, idx: int):
        end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._mem.pop()
        self._open.pop()
        seen = max(seen, peak)
        span = self.spans[idx]
        span.end, span.peak = end, seen - base
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], seen)
        tracemalloc.reset_peak()

    def wrap(self, fn, name: str, layer: str, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, kwargs, result)``
        fills the span's attributes in a bookkeeping span of its own, so its
        cost is not charged to the caller's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if attrs is not None:
                book = self._enter(BOOKKEEPING, "trace")
                try:
                    self.spans[idx].attrs = attrs(args, kwargs, result)
                finally:
                    self._exit(book)
            return result

        return traced


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def _price_pde_attrs(fn):
    def attrs(args, kwargs, curve):
        call = _bound(fn, args, kwargs)
        h = call.pop("h")
        digest = hashlib.blake2b(h.entries.data, digest_size=16)
        digest.update(repr(sorted(call.items())).encode())
        return {"steps": call["steps"], "banded": bool(curve.diagnostics.get("banded")),
                "key": digest.hexdigest()}
    return attrs


def _normals_attrs(fn):
    def attrs(args, kwargs, _):
        call = _bound(fn, args, kwargs)
        return {k: int(call[k]) for k in ("seed", "stream", "start", "count")}
    return attrs


def install(tracer: Tracer):
    """Wrap qflab's public functions and operator methods with ``tracer``.

    Every reference to a wrapped function in any qflab module namespace is
    replaced, so ``from .grid import derivative_matrices`` style imports are
    traced too.
    """
    import qflab.cli  # noqa: F401  (imports every layer)

    modules = {layer: sys.modules[f"qflab.{layer}"] for layer in LAYERS}
    attrs = {
        "grid.derivative_matrices": lambda a, k, r: {"grid": [a[0].x_min, a[0].x_max, a[0].n]},
        PRICE_PDE: _price_pde_attrs(modules["finance"].price_pde),
        NORMALS: _normals_attrs(modules["montecarlo"].standard_normals),
    }
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            span_name = f"{layer}.{name}"
            wrapped[id(obj)] = (obj, tracer.wrap(obj, span_name, layer, attrs.get(span_name)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "qflab" and not mod_name.startswith("qflab."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])

    linop, blockop = modules["operators"].LinOp, modules["susy"].BlockOp
    for cls, layer, methods in ((linop, "operators", LINOP_METHODS), (blockop, "susy", BLOCKOP_METHODS)):
        for m in methods:
            span_name = f"{layer}.{cls.__name__}.{m}"
            extra = (lambda a, k, r: {"n": a[0].n}) if span_name == MATMUL else None
            setattr(cls, m, tracer.wrap(cls.__dict__[m], span_name, layer, extra))

    post_init = linop.__post_init__

    def counted_post_init(self):
        post_init(self)
        tracer.linop_bytes += self.entries.nbytes

    linop.__post_init__ = counted_post_init


def layer_metrics(spans: list[Span], linop_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (cli.trace_overhead_frac excluded)."""
    selfs = self_times(spans)

    def inclusive(names) -> float:
        return sum(spans[i].duration for i in outermost(spans, names))

    def peak_mb(layer: str) -> float:
        return max((s.peak for s in spans if s.layer == layer), default=0) / 2**20

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    matmuls = [s for s in spans if s.name == MATMUL]
    matmul_s = inclusive({MATMUL})
    grids = {tuple(s.attrs["grid"]) for s in spans if s.name == "grid.derivative_matrices"}

    pde = [i for i, s in enumerate(spans) if s.name == PRICE_PDE]
    pde_steps = sum(spans[i].attrs["steps"] for i in pde)

    normals = [i for i, s in enumerate(spans) if s.name == NORMALS]
    draws = sum(spans[i].attrs["count"] for i in normals)
    streams: dict[tuple, list] = {}
    for i in normals:
        a = spans[i].attrs
        streams.setdefault((a["seed"], a["stream"]), []).append((a["start"], a["start"] + a["count"]))
    unique_draws = sum(union_length(iv) for iv in streams.values())
    knockout_s = inclusive({KNOCKOUT})
    path_steps = sum(spans[i].attrs["count"] for i in normals if under(spans, i, {KNOCKOUT}))
    normals_s = inclusive({NORMALS, "montecarlo.raw_uint64"})

    return {
        "operators.matmul_calls": len(matmuls),
        "operators.matmul_s": matmul_s,
        "operators.matmul_gflops": ratio(sum(8 * s.attrs["n"] ** 3 for s in matmuls), matmul_s) / 1e9,
        "operators.construct_s": inclusive(CONSTRUCT),
        "operators.elementwise_s": inclusive(ELEMENTWISE),
        "operators.linop_bytes": linop_bytes,
        "operators.peak_alloc_mb": peak_mb("operators"),
        "grid.derivative_matrices_s": inclusive({"grid.derivative_matrices"}),
        "grid.derivative_bytes": sum(2 * 8 * n * n for _, _, n in grids),
        "hamiltonians.build_s": inclusive(HAMILTONIAN_BUILD),
        "hamiltonians.peak_alloc_mb": peak_mb("hamiltonians"),
        "susy.block_algebra_s": inclusive(BLOCK_ALGEBRA),
        "susy.identify_blocks_s": inclusive({"susy.identify_blocks"}),
        "susy.ground_states_s": inclusive({"susy.ground_states"}),
        "susy.eigensolve_s": inclusive(EIGENSOLVE),
        "susy.peak_alloc_mb": peak_mb("susy"),
        "finance.hamiltonian_s": inclusive(FINANCE_HAMILTONIAN),
        "finance.price_pde_calls": len(pde),
        "finance.price_pde_s": inclusive({PRICE_PDE}),
        "finance.pde_step_us": ratio(sum(selfs[i] for i in pde), pde_steps) * 1e6,
        "finance.pde_banded_frac": ratio(sum(spans[i].attrs["banded"] for i in pde), len(pde)),
        "finance.unique_pde_ratio": ratio(len({spans[i].attrs["key"] for i in pde}), len(pde)),
        "finance.peak_alloc_mb": peak_mb("finance"),
        "montecarlo.draws": draws,
        "montecarlo.unique_draw_ratio": ratio(unique_draws, draws),
        "montecarlo.normals_s": normals_s,
        "montecarlo.ns_per_draw": ratio(normals_s, draws) * 1e9,
        "montecarlo.knockout_s": knockout_s,
        "montecarlo.ns_per_path_step": ratio(knockout_s, path_steps) * 1e9,
        "montecarlo.peak_alloc_mb": peak_mb("montecarlo"),
        "cli.self_s": sum(t for s, t in zip(spans, selfs) if s.layer == "cli"),
    }
