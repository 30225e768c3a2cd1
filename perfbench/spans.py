"""Per-layer tracing of the paramodular engine from outside its source.

``install()`` rebinds the public entry points of each layer to wrappers
that keep a stack of open spans.  A span's self time is its duration minus
the time of the spans it encloses; the inclusive time of a name is counted
only at its outermost open span, so recursion is not counted twice.  The
leaf arithmetic of ``cyclotomic`` and ``chars`` is only counted.

Modules import some entry points by name (``identities`` and ``lift`` hold
their own references to ``catalog``, ``closed_form``, ``exp_lift``,
``ms_p`` ...), so every module attribute of the package that is the
original function is rebound, not only the defining one.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []            # one [child seconds] cell per open span
        self._open = defaultdict(int)

    def span(self, name_of, fn, on_result=None):
        """Wrap ``fn``; ``name_of(args)`` names the span of one call and
        ``on_result(name, args, result)`` records counts from its result."""
        stack, open_, self_s, incl_s, calls = (self._stack, self._open, self.self_s,
                                               self.incl_s, self.calls)

        def wrapper(*args, **kwargs):
            name = name_of(args)
            cell = [0.0]
            stack.append(cell)
            open_[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_[name] -= 1
                if stack:
                    stack[-1][0] += dt
                self_s[name] += dt - cell[0]
                calls[name] += 1
                if not open_[name]:
                    incl_s[name] += dt
            if on_result is not None:
                on_result(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _rebind(owner, attr, wrapper):
    """Point ``owner.attr`` and every package-level alias of it at ``wrapper``."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "paramodular" or mod_name.startswith("paramodular."):
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)


def _fixed(name):
    return lambda args: name


def _by_nvars(op):
    return lambda args: f"qseries.{op}.{'siegel' if args[0].nvars == 3 else 'jacobi'}"


HECKE_ENTRY_POINTS = ("lambda_op", "t_minus_weight0", "t_minus_char", "t0",
                      "t0_norm_formula", "t_plus_2", "lambda_star", "t_plus_1_4")
CHARS_ENTRY_POINTS = ("kronecker", "check_sl2", "v_eta_exponent", "conductor",
                      "v_eta_sigma")
SPAN_LAYERS = ("qseries.substitute_linear", "hecke", "lift.exp_lift", "lift.arith_lift",
               "lift.closed_form", "kmroots.build_datum", "kmroots.lie_expansion_check",
               "identities.verify", "cli.emit")
CYC_OPS = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__")


def install(tracer: Tracer) -> None:
    """Rebind every traced entry point of an imported ``paramodular``."""
    from paramodular import (chars, cli, cyclotomic, forms, hecke, identities,
                             kmroots, lift, siegel)
    from paramodular.qseries import Series

    def count_terms(name, args, result):
        tracer.counts[name + ".terms_out"] += len(result.coeffs)

    for op in ("mul", "div"):
        _rebind(Series, op, tracer.span(_by_nvars(op), getattr(Series, op),
                                        count_terms if op == "mul" else None))
    _rebind(Series, "substitute_linear",
            tracer.span(_fixed("qseries.substitute_linear"), Series.substitute_linear))

    for op in CYC_OPS:
        _rebind(cyclotomic.Cyc, op, tracer.counter("cyclotomic.ops",
                                                   getattr(cyclotomic.Cyc, op)))
    for fn in CHARS_ENTRY_POINTS:
        _rebind(chars, fn, tracer.counter("chars.calls", getattr(chars, fn)))
    for op in ("__add__", "__sub__", "scaled"):
        _rebind(chars.CharacterTag, op,
                tracer.counter("chars.calls", getattr(chars.CharacterTag, op)))

    catalog = forms.catalog
    cache = forms._CACHE     # read-only: tells a cache hit from a build

    def catalog_span(args):
        name, qmax = args
        got = cache.get(name)
        hit = got is not None and (got.qmax is None or got.qmax >= qmax)
        return "forms.catalog.hit" if hit else "forms.catalog.build"

    def catalog_depth(span_name, args, result):
        requested = args[1]
        delivered = requested if result.qmax is None else result.qmax
        tracer.counts["forms.catalog.requested"] += requested
        tracer.counts["forms.catalog.delivered"] += delivered
        tracer.counts["forms.catalog.short"] += delivered < requested

    _rebind(forms, "catalog", tracer.span(catalog_span, catalog, catalog_depth))

    for fn in HECKE_ENTRY_POINTS:
        _rebind(hecke, fn, tracer.span(_fixed("hecke"), getattr(hecke, fn)))
    for fn in ("exp_lift", "arith_lift", "closed_form"):
        _rebind(lift, fn, tracer.span(_fixed(f"lift.{fn}"), getattr(lift, fn)))
    for fn in ("ms_p", "hecke_product_T2", "siegel_div", "siegel_pow"):
        _rebind(siegel, fn, tracer.span(_fixed(f"siegel.{fn}"), getattr(siegel, fn)))
    for fn in ("build_datum", "lie_expansion_check"):
        _rebind(kmroots, fn, tracer.span(_fixed(f"kmroots.{fn}"), getattr(kmroots, fn)))
    _rebind(identities, "verify",
            tracer.span(_fixed("identities.verify"), identities.verify))

    # the worker writes each request's stdout into a StringIO
    emit_start = [0]

    def emit_name(args):
        emit_start[0] = sys.stdout.tell()
        return "cli.emit"

    def emit_bytes(name, args, result):
        tracer.counts["cli.emit.bytes"] += sys.stdout.tell() - emit_start[0]

    _rebind(cli, "_emit", tracer.span(emit_name, cli._emit, emit_bytes))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures of one traced pass, by metric name."""
    s, i, c, n = tracer.self_s, tracer.incl_s, tracer.calls, tracer.counts
    out = {}
    for kind in ("jacobi", "siegel"):
        for op in ("mul", "div"):
            key = f"qseries.{op}.{kind}"
            out[key + ".self_s"] = s[key]
            out[key + ".calls"] = c[key]
        out[f"qseries.mul.{kind}.terms_out"] = n[f"qseries.mul.{kind}.terms_out"]
    for key in SPAN_LAYERS:
        out[key + ".self_s"] = s[key]
        out[key + ".calls"] = c[key]
    for fn in ("ms_p", "hecke_product_T2", "siegel_div", "siegel_pow"):
        out[f"siegel.{fn}.incl_s"] = i[f"siegel.{fn}"]
    out["cli.emit.bytes"] = n["cli.emit.bytes"]
    out["cyclotomic.ops"] = n["cyclotomic.ops"]
    out["chars.calls"] = n["chars.calls"]
    build, hit = "forms.catalog.build", "forms.catalog.hit"
    out["forms.catalog.build_s"] = i[build]
    out["forms.catalog.builds"] = c[build]
    out["forms.catalog.hits"] = c[hit]
    for key in ("requested", "delivered", "short"):
        out["forms.catalog." + key] = n["forms.catalog." + key]
    return out
