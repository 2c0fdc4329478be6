"""Span recorder for the traced benchmark run.

The benchmark times each pdsplit layer from outside: ``install`` rebinds
the public functions and methods at every layer boundary to wrappers
that record a span (id, name, start, end, parent).  Spans stay in
memory, are written out once at the end, and self times are derived
from them (a span's duration minus the time its child spans cover).

Only the traced run installs the wrappers; untraced runs call the
program unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

# Spans whose descendants do set-up or monitoring work rather than the
# iteration map; the ``inner`` totals of ``Tracer.summary`` leave them out.
SETUP_OR_MONITOR = ("linalg.power_iteration", "tv.objective")


class Tracer:
    """In-memory span and count recorder shared by every thread.

    ``list.append`` and ``next`` on ``itertools.count`` are atomic under
    the interpreter lock, so worker threads (the sweep pool) record
    without a lock; each thread keeps its own stack of open spans.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: list[tuple[str, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent))

        return traced

    def count(self, name: str, value: int) -> None:
        self.counts.append((name, int(value)))

    def summary(self) -> dict:
        """Per-name count, total and self seconds, plus event counts.

        Also gives ``inner``: per-name totals over spans with no
        ancestor in SETUP_OR_MONITOR, so per-iteration kernel times
        leave out the power iteration and the objective monitor.
        """
        spans = sorted(self.spans)  # parents open before their children
        names = {sid: name for sid, name, _, _, _ in spans}
        covered = defaultdict(float)
        for _, _, t0, t1, parent in spans:
            covered[parent] += t1 - t0
        excluded: dict[int, bool] = {0: False}
        by_name: dict[str, dict] = {}
        for sid, name, t0, t1, parent in spans:
            excluded[sid] = (excluded.get(parent, False)
                             or names.get(parent) in SETUP_OR_MONITOR)
            rec = by_name.setdefault(
                name, {"count": 0, "total": 0.0, "self": 0.0, "inner": 0.0}
            )
            rec["count"] += 1
            rec["total"] += t1 - t0
            rec["self"] += t1 - t0 - covered[sid]
            if not excluded[sid]:
                rec["inner"] += t1 - t0
        counts: dict[str, int] = defaultdict(int)
        for name, value in self.counts:
            counts[name] += value
        return {"spans": by_name, "counts": dict(counts)}

    def write(self, path) -> None:
        """Write every span as CSV: run_id,id,parent,name,start_s,end_s."""
        lines = ["run_id,id,parent,name,start_s,end_s"]
        lines.extend(
            f"{self.run_id},{sid},{parent},{name},{t0!r},{t1!r}"
            for sid, name, t0, t1, parent in sorted(self.spans)
        )
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")


def _modules():
    import pdsplit
    from pdsplit import cli, drs, km, linalg, monotone, pgm, primal_dual, tv

    return (pdsplit, linalg, monotone, km, primal_dual, drs, tv, pgm, cli)


def _rebind(orig, new) -> None:
    """Point every pdsplit module name bound to ``orig`` at ``new``;
    modules import each other's functions by name, so each binding is
    patched."""
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


def install(tr: Tracer) -> None:
    """Wrap the layer boundaries of pdsplit with spans recorded in ``tr``."""
    from pdsplit import cli, drs, km, linalg, monotone, primal_dual, tv

    span = tr.span

    # linalg: every HVector construction runs __post_init__ (checks, copy)
    linalg.HVector.__post_init__ = span(
        "linalg.hvector", linalg.HVector.__post_init__
    )

    real_power = linalg.power_iteration_sqnorm

    def power_iteration(op, *args, **kwargs):
        step = span("linalg.power_iteration.step", op.forward)
        return real_power(dataclasses.replace(op, forward=step), *args, **kwargs)

    _rebind(real_power, span("linalg.power_iteration", power_iteration))

    # primal_dual
    for name in ("step_condition", "pd_resolvent"):
        orig = getattr(primal_dual, name)
        _rebind(orig, span(f"primal_dual.{name}", orig))

    # monotone
    monotone.QuadraticDataFit.resolvent = span(
        "monotone.data_fit", monotone.QuadraticDataFit.resolvent
    )
    _rebind(monotone.dual_resolvent,
            span("monotone.dual_resolvent", monotone.dual_resolvent))
    real_linear = monotone.monotone_linear

    def monotone_linear(*args, **kwargs):
        op = real_linear(*args, **kwargs)
        return dataclasses.replace(
            op, resolvent=span("monotone.linear", op.resolvent)
        )

    _rebind(real_linear, monotone_linear)

    # km: the loop, its monitors and objective, and its iteration count
    real_km = km.km_iterate
    km_sig = inspect.signature(real_km)

    def km_iterate(*args, **kwargs):
        bound = km_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        for m in bound.arguments["monitors"]:
            if not getattr(m, "benchmark_marker", False):
                m.observe = span("km.monitors", m.observe)
        if bound.arguments["objective_fn"] is not None:
            bound.arguments["objective_fn"] = span(
                "km.monitors", bound.arguments["objective_fn"]
            )
        result = real_km(*bound.args, **bound.kwargs)
        tr.count("km.iterations", result.iterations)
        return result

    traced_km = span("km.loop", km_iterate)
    _rebind(real_km, traced_km)

    # drs: the classic sequence is drs's own km_iterate binding
    def counted(name, fn):
        def run(*args, **kwargs):
            result = fn(*args, **kwargs)
            tr.count(f"{name}.iterations", result.iterations)
            return result
        return span(name, run)

    drs.km_iterate = counted("drs.classic", traced_km)
    drs.pd_drs_iterate = counted("drs.pd_sequence", drs.pd_drs_iterate)
    _rebind(drs.equivalence_deviation,
            span("drs.equivalence", drs.equivalence_deviation))

    # tv
    real_grad = tv.build_gradient_ops

    def build_gradient_ops(*args, **kwargs):
        return tuple(
            dataclasses.replace(
                op,
                forward=span("tv.gradient", op.forward),
                adjoint=span("tv.gradient", op.adjoint),
            )
            for op in real_grad(*args, **kwargs)
        )

    _rebind(real_grad, build_gradient_ops)
    for name in ("synthetic_image", "build_gaussian_blur",
                 "add_gaussian_noise"):
        orig = getattr(tv, name)
        _rebind(orig, span("tv.inputs", orig))
    for name, label in (("tv_objective", "tv.objective"),
                        ("psnr", "tv.psnr"),
                        ("build_problem", "tv.build_problem"),
                        ("run_tv_solver", "tv.run_tv_solver"),
                        ("sweep", "tv.sweep"),
                        ("_run_cell", "tv.sweep.cell")):
        orig = getattr(tv, name)
        _rebind(orig, span(label, orig))

    # cli and pgm
    for name, label in (("_load_config", "cli.config"),
                        ("_tv_setup", "cli.config"),
                        ("write_trace_csv", "cli.write_trace_csv"),
                        ("write_sweep_csv", "cli.write_sweep_csv"),
                        ("cmd_solve_tv", "cli.solve_tv"),
                        ("cmd_sweep", "cli.sweep"),
                        ("main", "cli.main")):
        orig = getattr(cli, name)
        _rebind(orig, span(label, orig))
    _rebind(cli.write_pgm, span("pgm.write_pgm", cli.write_pgm))
