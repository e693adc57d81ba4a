"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces the public entry points of each layer of
`lazy_sliding` with timing wrappers and `uninstall()` puts the originals
back.  A function imported by name into other modules (``from .oracle
import weak_separation``) is replaced in every module that holds it, so the
call sites inside the package see the wrapper.

Each span adds its duration to its layer's busy time and to its parent's
child time; a layer's self time is busy minus child time.  Spans inside
``run_solver`` are booked under the solver's name (``lazy``, ``eager``,
``ofw``); spans outside any solve are booked under ``""`` (set-up work of
the experiment: instance reloads, constant estimation, trace writes).

A target whose module or attribute does not exist is skipped, so its
metrics read 0 once the package drops it.
"""

import importlib
import sys
import time

PACKAGE = "lazy_sliding"

# (layer, module, attribute path).  An attribute path "Class.method" wraps
# the method on that class; "*.lmo" wraps `lmo` on every class of the
# module that defines it.
TARGETS = (
    ("solvers.run_solver", "solvers", "run_solver"),
    ("regions.lmo", "regions", "*.lmo"),
    ("linalg.power_iteration", "linalg", "power_iteration"),
    ("oracle.weak_sep", "oracle", "weak_separation"),
    ("oracle.scan", "oracle", "VertexCache.scan"),
    ("oracle.insert", "oracle", "VertexCache.insert"),
    ("oracle.move_to_front", "oracle", "VertexCache.move_to_front"),
    ("lcg.solve", "lcg", "lcg_solve"),
    ("lcg.line_search", "lcg", "line_search_quadratic"),
    ("objectives.sfo", "objectives", "LeastSquares.sfo_batch"),
    ("objectives.sfo", "objectives", "LeastSquares.sfo_sample"),
    ("objectives.value", "objectives", "LeastSquares.value"),
    ("objectives.lipschitz", "objectives", "LeastSquares.lipschitz"),
    ("objectives.estimate_sigma2", "objectives", "estimate_sigma2"),
    ("schedules.eval", "schedules", "schedule_eval"),
    ("trace.append", "trace", "RunTrace.append"),
    ("trace.write_csv", "trace", "RunTrace.write_csv"),
    ("bench.load_instance", "bench", "load_instance"),
    ("bench.resolve_constants", "bench", "resolve_constants"),
    ("bench.summarize", "bench", "summarize"),
)

ROOT = "solvers.run_solver"


class LayerStats:
    """Counts and times of one layer within one context."""

    __slots__ = ("calls", "busy_ns", "self_ns", "extra")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.extra = {}

    def add(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount


def _extras(layer, fn, args, kwargs, result, stats):
    """Work counts a layer reports beyond calls and time."""
    if layer == "linalg.power_iteration":
        stats.add("iters", result[3])
    elif layer == "oracle.scan":
        cache, c = args[0], args[1]
        stats.add("bytes", len(cache) * len(c) * 8)
        if result is not None:
            stats.add("hits", 1)
    elif layer == "lcg.solve":
        stats.add("iters", result.iterations)
    elif layer == "objectives.sfo":
        if fn.__name__ == "sfo_batch":
            stats.add("samples", int(args[2] if len(args) > 2 else kwargs["size"]))
        else:
            stats.add("samples", 1)


class Tracer:
    """Span recorder over the layers of `lazy_sliding`.

    ``solver_names`` maps a solver variant (``calsgd``) to the name its
    spans are booked under (``lazy``).
    """

    def __init__(self, solver_names, targets=TARGETS):
        self.solver_names = dict(solver_names)
        self.targets = targets
        self.stats = {}           # (context, layer) -> LayerStats
        self.context = ""
        self._stack = []          # child-time accumulators of open spans
        self._patched = []        # (owner, attribute, original)

    def layer(self, context, layer):
        key = (context, layer)
        if key not in self.stats:
            self.stats[key] = LayerStats()
        return self.stats[key]

    def get(self, context, layer):
        return self.stats.get((context, layer)) or LayerStats()

    def _wrap(self, layer, fn):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            outer_context = tracer.context
            if layer == ROOT:
                variant = args[0].variant if args else kwargs["config"].variant
                tracer.context = tracer.solver_names.get(variant, variant)
            stats = tracer.layer(tracer.context, layer)
            tracer._stack.append(0)
            t0 = clock()
            failed = False
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                dur = clock() - t0
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dur
                stats.calls += 1
                stats.busy_ns += dur
                stats.self_ns += dur - child
                if failed:
                    stats.add("failed", 1)
                tracer.context = outer_context
            _extras(layer, fn, args, kwargs, result, stats)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self):
        """Wrap every target that exists; returns the list of layers wrapped."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrapped = []
        for layer, module_name, path in self.targets:
            try:
                module = importlib.import_module("%s.%s" % (PACKAGE, module_name))
            except ImportError:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name == "*":
                owners = [cls for cls in vars(module).values()
                          if isinstance(cls, type) and cls.__module__ == module.__name__
                          and attr in vars(cls)]
            elif owner_name:
                cls = getattr(module, owner_name, None)
                owners = [cls] if cls is not None and attr in vars(cls) else []
            else:
                owners = []
                fn = getattr(module, attr, None)
                if callable(fn):
                    wrapper = self._wrap(layer, fn)
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is fn:
                                self._patched.append((mod, name, fn))
                                setattr(mod, name, wrapper)
                    wrapped.append(layer)
            for cls in owners:
                fn = vars(cls)[attr]
                self._patched.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(layer, fn))
                wrapped.append(layer)
        return wrapped

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def solver_metrics(tracer, name):
    """Per-layer metrics of one solver's spans, summed over its runs."""
    def ms(ns):
        return ns / 1e6

    g = tracer.get
    root = g(name, ROOT)
    scan = g(name, "oracle.scan")
    ws = g(name, "oracle.weak_sep")
    hits = scan.extra.get("hits", 0)
    lcg = g(name, "lcg.solve")
    power = g(name, "linalg.power_iteration")
    sfo = g(name, "objectives.sfo")
    value = g(name, "objectives.value")
    lmo = g(name, "regions.lmo")
    return {
        "solve_ms": ms(root.busy_ns),
        "regions.lmo.calls": lmo.calls,
        "regions.lmo.ms": ms(lmo.busy_ns),
        "linalg.power_iteration.calls": power.calls,
        "linalg.power_iteration.iters": power.extra.get("iters", 0),
        "linalg.power_iteration.ms": ms(power.busy_ns),
        "linalg.power_iteration.failed": power.extra.get("failed", 0),
        "oracle.weak_sep.calls": ws.calls,
        "oracle.cache.hits": hits,
        "oracle.cache.misses": ws.calls - hits,
        "oracle.cache.hit_rate": hits / ws.calls if ws.calls else 0.0,
        "oracle.scan.calls": scan.calls,
        "oracle.scan.ms": ms(scan.busy_ns),
        "oracle.scan.bytes": scan.extra.get("bytes", 0),
        "oracle.insert.ms": ms(g(name, "oracle.insert").busy_ns),
        "oracle.move_to_front.ms": ms(g(name, "oracle.move_to_front").busy_ns),
        "lcg.solve.calls": lcg.calls,
        "lcg.solve.ms": ms(lcg.busy_ns),
        "lcg.self_ms": ms(lcg.self_ns),
        "lcg.iters": lcg.extra.get("iters", 0),
        "lcg.line_search.ms": ms(g(name, "lcg.line_search").busy_ns),
        "objectives.sfo.calls": sfo.calls,
        "objectives.sfo.samples": sfo.extra.get("samples", 0),
        "objectives.sfo.ms": ms(sfo.busy_ns),
        "objectives.value.calls": value.calls,
        "objectives.value.ms": ms(value.busy_ns),
        "schedules.eval.ms": ms(g(name, "schedules.eval").busy_ns),
        "trace.append.ms": ms(g(name, "trace.append").busy_ns),
        "solvers.self_ms": ms(root.self_ns),
    }


def self_time_sum_ms(tracer, name):
    """Sum of self times of every layer booked under one solver.

    Equals that solver's `solve_ms` when every span inside a solve nests
    under its `run_solver` span.
    """
    return sum(s.self_ns for (ctx, _), s in tracer.stats.items() if ctx == name) / 1e6


def setup_metrics(tracer):
    """Set-up layers of the experiment (spans outside any solve)."""
    g = tracer.get
    return {
        "bench.load_instance.calls": g("", "bench.load_instance").calls,
        "bench.load_instance.ms": g("", "bench.load_instance").busy_ns / 1e6,
        "bench.resolve_constants.calls": g("", "bench.resolve_constants").calls,
        "bench.resolve_constants.ms": g("", "bench.resolve_constants").busy_ns / 1e6,
        "objectives.lipschitz.ms": g("", "objectives.lipschitz").busy_ns / 1e6,
        "objectives.estimate_sigma2.ms": g("", "objectives.estimate_sigma2").busy_ns / 1e6,
        "trace.write_csv.ms": g("", "trace.write_csv").busy_ns / 1e6,
        "bench.summarize.ms": g("", "bench.summarize").busy_ns / 1e6,
    }
