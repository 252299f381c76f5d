"""Spans and work counts around the library's public functions.

The library is measured from outside: ``install`` replaces public
functions on their modules with wrappers, including every copy another
deltalab module imported by name (``adaptive_quadrature`` in distint,
singular and breve; the CLI's imports), and ``restore`` puts the
originals back.

Two kinds of boundary are recorded:

- call boundaries get a span (name, start, end, parent, task id), kept
  in memory and written out when the run ends;
- per-point boundaries (expression points, kernel points) get a count
  and a timer but no span, since there are millions of them; quadrature
  panels get a count only.

Counts are in points, not calls: an array argument counts its length, so
a batched implementation does not redefine a counter.  A layer's self
time is its spans' duration minus the time covered by child spans and
per-point timers.  Everything runs on one thread, so no layer waits.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

now = time.perf_counter_ns


def n_points(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, task]
        self._open: list[list[int]] = []  # [span index, ns covered by children]
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.task = -1
        self._points: dict[str, list] = {}  # per-point timers, folded in by totals()

    def totals(self) -> tuple[Counter, Counter]:
        """(self time in ns by span or point name, work counts)."""
        self_ns, counts = Counter(self.self_ns), Counter(self.counts)
        for name, (ns, points, counter) in self._points.items():
            self_ns[name] += ns
            counts[counter] += points
        return self_ns, counts

    def span(self, name: str, fn, on_return=None):
        def wrapper(*args, **kwargs):
            rec = [name, now(), 0, self._open[-1][0] if self._open else -1, self.task]
            self.spans.append(rec)
            frame = [len(self.spans) - 1, 0]
            self._open.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = now()
                self._open.pop()
                dur = rec[2] - rec[1]
                self.self_ns[name] += dur - frame[1]
                if self._open:
                    self._open[-1][1] += dur
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result
        return wrapper

    def point(self, name: str, fn, arg: int, counter: str):
        acc = self._points.setdefault(name, [0, 0, counter])  # [ns, points, counter]
        open_ = self._open

        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                acc[0] += dt
                if open_:
                    open_[-1][1] += dt
                x = args[arg]
                acc[1] += 1 if x.__class__ is float else n_points(x)
        return wrapper

    def count(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,task\n")
            for i, (name, t0, t1, parent, task) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0},{t1},{parent},{task}\n")


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _segments(potential, energy, window) -> int:
    """2x2 products a transfer matrix needs: the constant pieces of the
    potential inside the window, once per energy."""
    x0, x1 = window if window is not None else potential.support()
    edges = [x0, *(b for b in potential.breakpoints if x0 < b < x1), x1]
    return sum(1 for lo, hi in zip(edges, edges[1:]) if hi != lo) * n_points(energy)


# Span names whose self time makes up each per-layer time metric.
LAYER_TIMES = {
    "quadrature.self_s": ("quadrature.adaptive_quadrature",),
    "distint.self_s": ("distint.distribution_action", "distint.action_samples",
                       "distint.integrate_against"),
    "distint.limit_s": ("distint.accelerated_limit", "distint.epsilon_limit"),
    "singular.self_s": ("singular.singular_action", "singular.singular_alpha"),
    "breve.self_s": ("breve.breve_action", "breve.delta_prime_action",
                     "breve.breve_sample", "breve.delta_prime_sample"),
    "qm1d.transfer_s": ("qm1d.transfer_matrix",),
    "qm1d.scan_self_s": ("qm1d.bound_states", "qm1d.band_structure", "qm1d.comb_dispersion"),
    "qm1d.eigsolve_s": ("qm1d.ground_state",),
    "qm1d.darboux_s": ("qm1d.darboux_transform", "qm1d.susy_partner_core_integral",
                       "qm1d.darboux_commutation_check"),
    "expr.eval_s": ("expr.eval",),
    "kernels.eval_s": ("kernels.eval_kernel",),
}

LAYER_COUNTS = {
    "expr.points": "expr.points",
    "kernels.evals": "kernels.evals",
    "quadrature.calls": "quadrature.calls",
    "quadrature.panels": "quadrature.panels",
    "quadrature.budget_errors": "quadrature.adaptive_quadrature!QuadratureBudgetError",
    "distint.samples": "distint.samples",
    "singular.samples": "singular.samples",
    "breve.samples": "breve.samples",
    "qm1d.transfer_calls": "qm1d.transfer_calls",
    "qm1d.segments": "qm1d.segments",
    "qm1d.scan_points": "qm1d.scan_points",
    "qm1d.root_refines": "qm1d.root_refines",
}


def install(tracer: Tracer):
    """Wrap the public functions; returns a callable that undoes it."""
    import deltalab
    from deltalab import breve, cli, distint, expr, kernels, qm1d, quadrature, singular

    modules = [deltalab, breve, cli, distint, expr, kernels, qm1d, quadrature, singular]
    replaced: list[tuple[object, str, object]] = []

    def patch(home, name: str, wrapper) -> None:
        original = getattr(home, name)
        for mod in modules:
            if getattr(mod, name, None) is original:
                replaced.append((mod, name, original))
                setattr(mod, name, wrapper)

    def add(counter, amount):
        def on_return(counts, args, kwargs, result):
            counts[counter] += amount(args, kwargs, result)
        return on_return

    def span(home, name: str, on_return=None) -> None:
        label = f"{home.__name__.rsplit('.', 1)[-1]}.{name}"
        patch(home, name, tracer.span(label, getattr(home, name), on_return))

    one = lambda args, kwargs, result: 1

    # expr: parsing is a span; every evaluation of a compiled function is
    # a point.
    make = tracer.span("expr.make_function", expr.make_function)
    patch(expr, "make_function",
          lambda text: tracer.point("expr.eval", make(text), 0, "expr.points"))
    patch(kernels, "eval_kernel",
          tracer.point("kernels.eval_kernel", kernels.eval_kernel, 2, "kernels.evals"))

    patch(quadrature, "gauss_kronrod_panel",
          tracer.count("quadrature.panels", quadrature.gauss_kronrod_panel))
    span(quadrature, "adaptive_quadrature", add("quadrature.calls", one))

    for name in ("distribution_action", "integrate_against", "accelerated_limit",
                 "epsilon_limit"):
        span(distint, name)
    span(distint, "action_samples", add("distint.samples", lambda a, k, r: len(r)))

    sing_action = singular.singular_action

    def singular_samples(args, kwargs, result):
        sched = _bound(sing_action, args, kwargs)["schedule"]
        return (sched or singular.DEFAULT_SINGULAR_SCHEDULE).steps

    span(singular, "singular_action", add("singular.samples", singular_samples))
    span(singular, "singular_alpha")

    span(breve, "breve_action")
    span(breve, "delta_prime_action")
    span(breve, "breve_sample", add("breve.samples", one))
    span(breve, "delta_prime_sample", add("breve.samples", one))

    bound_states, band_structure = qm1d.bound_states, qm1d.band_structure

    def transfer_work(counts, args, kwargs, result):
        # transfer_matrix(potential, energy, window=None); called once per
        # energy of a scan, so its arguments are read without inspect.
        potential = args[0] if args else kwargs["potential"]
        energy = args[1] if len(args) > 1 else kwargs["energy"]
        window = args[2] if len(args) > 2 else kwargs.get("window")
        counts["qm1d.transfer_calls"] += n_points(energy)
        counts["qm1d.segments"] += _segments(potential, energy, window)

    span(qm1d, "transfer_matrix", transfer_work)
    span(qm1d, "bound_states",
         add("qm1d.scan_points", lambda a, k, r: _bound(bound_states, a, k)["n_scan"]))
    span(qm1d, "band_structure",
         add("qm1d.scan_points",
             lambda a, k, r: n_points(_bound(band_structure, a, k)["energies"])))
    for name in ("comb_dispersion", "scattering", "ground_state", "darboux_transform",
                 "susy_partner_core_integral", "darboux_commutation_check"):
        span(qm1d, name)
    patch(qm1d, "brentq", tracer.count("qm1d.root_refines", qm1d.brentq))

    span(cli, "main")

    def restore() -> None:
        for mod, name, original in reversed(replaced):
            setattr(mod, name, original)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    self_ns, counts = tracer.totals()
    out: dict[str, float] = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = sum(self_ns[n] for n in names) / 1e9
    for metric, key in LAYER_COUNTS.items():
        out[metric] = counts[key]
    parses = sum(1 for s in tracer.spans if s[0] == "expr.make_function")
    out["expr.parse_us"] = self_ns["expr.make_function"] / 1e3 / parses if parses else 0.0
    return out

