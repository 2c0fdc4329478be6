"""pdsplit benchmark: end-to-end metrics, a traced run for per-layer
metrics, and a smoke mode.

Run from the repository root:

    python3 perfbench/run.py --workload accept64 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --trace 1  # per-layer metrics
    python3 perfbench/run.py --smoke                   # tiny sizes, seconds

Each operation runs in its own process (``op.py``) against the package
in ``src``.  The run prints a table (median, high percentile and sample
count per metric) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced runs
report the end-to-end metrics, traced runs the per-layer ones.  Outputs
and spans go to ``.perfbench_out`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
RUN_DEADLINE_S = 170.0  # every run must exit within 180 s

# Set-up-only processes added to each untraced run, so setup_s is a
# median over several set-ups (process start and import vary by 0.1 s
# from one process to the next); paper256's set-up (4 s of power
# iteration) is sampled by its two solves instead.
SETUP_ONLY = {"accept64": 7, "paper256": 0, "sweep64": 7, "drs-equiv": 4}
# Operations per untraced run at least; more while the operations'
# time stays within --seconds.  paper256 needs two to check that a
# rerun is byte-identical.
MIN_OPS = {"accept64": 2, "paper256": 2, "sweep64": 2, "drs-equiv": 3}

# Printed in the table only: fail_rate is 0 by design (the JSON's
# `failed` carries it), and psnr_db is gated by the output checks and
# has no meaning on drs-equiv.
TABLE_ONLY = (("psnr_db", "dB"), ("fail_rate", "ratio"))

# Layer boundaries each workload must cross; smoke mode fails if one
# is never crossed, so a refactor cannot leave a metric unmeasured.
_CORE = ("linalg.hvector", "linalg.power_iteration",
         "linalg.power_iteration.step", "primal_dual.step_condition",
         "primal_dual.pd_resolvent", "monotone.dual_resolvent", "km.loop")
_TV = _CORE + ("monotone.data_fit", "tv.gradient", "tv.build_problem",
               "tv.run_tv_solver", "tv.inputs")
BOUNDARIES = {
    "accept64": _TV,
    "paper256": _TV + ("tv.objective", "km.monitors", "cli.main",
                       "cli.solve_tv", "cli.config", "cli.write_trace_csv",
                       "pgm.write_pgm"),
    "sweep64": _TV + ("tv.sweep", "tv.sweep.cell", "tv.objective",
                      "tv.psnr", "cli.main", "cli.sweep", "cli.config",
                      "cli.write_sweep_csv"),
    "drs-equiv": _CORE + ("monotone.linear", "km.monitors", "drs.classic",
                          "drs.pd_sequence", "drs.equivalence"),
}
COUNTS = {
    "accept64": ("km.iterations",),
    "paper256": ("km.iterations",),
    "sweep64": ("km.iterations",),
    "drs-equiv": ("km.iterations", "drs.classic.iterations",
                  "drs.pd_sequence.iterations"),
}


class Run:
    """Processes started by one benchmark run, against one deadline."""

    def __init__(self, workload: str, params: dict, seed: int):
        self.workload = workload
        self.params = params
        self.seed = seed
        self.t0 = time.monotonic()
        self.n = 0

    def op(self, mode="full", index=0, trace=False, **overrides) -> dict:
        self.n += 1
        workdir = OUT / f"{self.workload}-{os.getpid()}-{self.n}"
        spec = {
            "params": {**self.params, **overrides}, "seed": self.seed,
            "index": index, "mode": mode, "trace": trace,
            "workdir": str(workdir), "run_id": workdir.name,
        }
        res = _child(self.workload, spec,
                     RUN_DEADLINE_S - (time.monotonic() - self.t0))
        res.update(mode=mode, traced=trace, workdir=workdir,
                   params=spec["params"])
        if res.get("t_setup_end") is not None:
            res["setup_s"] = res["t_setup_end"] - res["t_spawn"]
        if res.get("t_op_end") is not None and not res.get("error"):
            iters = sum(it["iterations"] for it in res["items"])
            res["wall_s"] = res["t_op_end"] - res["t_spawn"]
            res["iter_s"] = res["t_iter_end"] - res["t_setup_end"]
            res["us_per_iter"] = res["iter_s"] / iters * 1e6 if iters else math.nan
        return res

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


def _child(workload: str, spec: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py"), workload, json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed it
        return {"t_spawn": t_spawn, "items": [], "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"t_spawn": t_spawn, "items": [],
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    res = json.loads(lines[-1])
    res["t_spawn"] = t_spawn
    return res


# -- plans ------------------------------------------------------------------

def untraced_plan(run: Run, seconds: float) -> tuple[list, list]:
    setups = [run.op(mode="setup", index=k)
              for k in range(SETUP_ONLY[run.workload])]
    ops = []
    t_ops = time.monotonic()
    while True:
        ops.append(run.op(index=len(ops)))
        last = ops[-1].get("wall_s", 0.0)
        if len(ops) >= MIN_OPS[run.workload] and (
            time.monotonic() - t_ops + last > seconds
            or run.elapsed() + 2 * last > RUN_DEADLINE_S
            or ops[-1].get("error")
        ):
            return ops, setups


def traced_plan(run: Run) -> tuple[dict, dict, dict | None]:
    """Untraced and traced runs of the same operation, plus, for the
    sweep, an untraced single-worker sweep."""
    plain = run.op()
    traced = run.op(trace=True)
    serial = run.op(workers=1) if run.workload == "sweep64" else None
    return plain, traced, serial


# -- checks -------------------------------------------------------------

def check_ops(workload: str, ops: list, refs: list | None) -> tuple[int, int, list]:
    """Attempted and failed operations (solves, sweep rows, DRS
    instances) and the failure reasons."""
    attempted = failed = 0
    reasons = []
    hashes = None
    for op in ops:
        expected = wl.items_per_op(workload, op["params"])
        attempted += expected
        if op.get("error") or len(op["items"]) != expected:
            failed += expected
            reasons.append(op.get("error") or
                           f"{len(op['items'])} items, expected {expected}")
            continue
        for i, item in enumerate(op["items"]):
            ref = refs[i] if refs and i < len(refs) else None
            reason = wl.check_item(workload, item, ref)
            if reason is None and "hashes" in item:
                hashes = hashes or item["hashes"]
                if item["hashes"] != hashes:
                    reason = "rerun output not byte-identical"
            if reason is not None:
                failed += 1
                reasons.append(reason)
    return attempted, failed, reasons


# -- metrics ----------------------------------------------------------------

def summarize(values: list) -> dict:
    """Median, the highest percentile with at least ten samples beyond
    it (the maximum when there are too few), and the sample count."""
    vals = sorted(v for v in values if v is not None and not math.isnan(v))
    if not vals:
        return {"median": math.nan, "high": math.nan, "high_label": "max", "n": 0}
    high, label = vals[-1], "max"
    for p in (99.9, 99, 95, 90):
        if len(vals) * (1 - p / 100) >= 10:
            high = vals[min(len(vals) - 1, math.ceil(len(vals) * p / 100) - 1)]
            label = f"p{p:g}"
            break
    return {"median": statistics.median(vals), "high": high,
            "high_label": label, "n": len(vals)}


def end_to_end(ops: list, setups: list, attempted: int, failed: int) -> dict:
    good = [op for op in ops if "wall_s" in op]
    items = [it for op in good for it in op["items"]]
    return {
        "wall_s": summarize([op["wall_s"] for op in good]),
        "setup_s": summarize([op["setup_s"] for op in good + setups
                              if "setup_s" in op]),
        "us_per_iter": summarize([op["us_per_iter"] for op in good]),
        "peak_rss_mb": summarize([op["peak_rss_mb"] for op in good]),
        "psnr_db": summarize([it["psnr"] for it in items if "psnr" in it]),
        "fail_rate": summarize([failed / attempted if attempted else 1.0]),
    }


def data_fit_cost(n_px: int) -> tuple[float, float]:
    """Computed flops and bytes of one FFT data-fit resolvent on n_px
    pixels: rhs = x + tau*R^T b, fft2, divide by the symbol, ifft2,
    real part, finite check.  A complex FFT counts 5 N log2 N flops;
    bytes count each numpy pass's reads and writes once, with no
    cache reuse."""
    if n_px == 0:
        return 0.0, 0.0
    flops = 5 * n_px + 2 * 5 * n_px * math.log2(n_px)
    bytes_ = n_px * (16 + 24 + 24 + 40 + 32 + 24 + 8)
    return flops, bytes_


def per_layer(workload: str, plain: dict, traced: dict,
              serial: dict | None) -> dict:
    summary = traced.get("trace", {"spans": {}, "counts": {}})
    spans, counts = summary["spans"], summary["counts"]

    def get(name, key="total"):
        return spans.get(name, {}).get(key, 0.0)

    def per_call(name, key="total"):
        n = get(name, "count")
        return get(name, key) / n if n else 0.0

    iters = counts.get("km.iterations", 0)

    def per_iter(x):
        return x / iters if iters else 0.0

    def per(name):
        n = counts.get(f"{name}.iterations", 0)
        return get(name) / n * 1e6 if n else 0.0

    grid = traced.get("info", {}).get("grid", 0)
    flops, bytes_ = data_fit_cost(grid * grid) if get(
        "monotone.data_fit", "count") else (0.0, 0.0)
    m = {
        "linalg.hvector.per_iter": per_iter(get("linalg.hvector", "count")),
        "linalg.hvector.us_per_iter": per_iter(get("linalg.hvector")) * 1e6,
        "linalg.power_iteration.steps": get("linalg.power_iteration.step", "count"),
        "linalg.power_iteration.s": get("linalg.power_iteration"),
        "primal_dual.step_condition.calls": get("primal_dual.step_condition", "count"),
        "primal_dual.step_condition.s": get("primal_dual.step_condition"),
        "primal_dual.pd_resolvent.self_us": per_call("primal_dual.pd_resolvent", "self") * 1e6,
        "monotone.data_fit.us": per_call("monotone.data_fit") * 1e6,
        "monotone.data_fit.flops_computed": flops,
        "monotone.data_fit.bytes_computed": bytes_,
        "monotone.dual_resolvent.us": per_call("monotone.dual_resolvent") * 1e6,
        "monotone.linear.us": per_call("monotone.linear") * 1e6,
        "tv.gradient.us_per_iter": per_iter(get("tv.gradient", "inner")) * 1e6,
        "tv.objective.us": per_call("tv.objective") * 1e6,
        "tv.build_problem.ms": per_call("tv.build_problem") * 1e3,
        "tv.sweep.cell_s": 0.0,
        "tv.sweep.overlap": 0.0,
        "tv.sweep.parallel_eff": 0.0,
        "tv.sweep.converged_frac": 0.0,
        "km.iterations": iters,
        "km.loop.self_us_per_iter": per_iter(get("km.loop", "self")) * 1e6,
        "km.monitors.us_per_iter": per_iter(get("km.monitors")) * 1e6,
        "drs.classic.us_per_iter": per("drs.classic"),
        "drs.pd_sequence.us_per_iter": per("drs.pd_sequence"),
        "drs.max_deviation": max((it["deviation"] for op in (plain, traced)
                                  for it in op["items"] if "deviation" in it),
                                 default=0.0),
        "cli.config.ms": get("cli.config") * 1e3,
        "cli.write_trace_csv.ms": per_call("cli.write_trace_csv") * 1e3,
        "pgm.write_pgm.ms": per_call("pgm.write_pgm") * 1e3,
        "trace.wall_s": traced.get("wall_s", math.nan),
        "trace.overhead_s": traced.get("wall_s", math.nan) - plain.get("wall_s", math.nan),
        "trace.coverage": (sum(s["self"] for s in spans.values())
                           / traced["wall_s"]) if "wall_s" in traced else math.nan,
    }
    if workload == "sweep64" and "iter_s" in plain:
        # Measured in the process that calls the sweep: its wall time
        # and the rows' own wall_ms, whatever runs the cells.
        rows = plain["items"]
        sweep_s = plain["iter_s"]
        cells = [r["wall_ms"] / 1e3 for r in rows]
        m["tv.sweep.cell_s"] = statistics.fmean(cells)
        m["tv.sweep.overlap"] = sum(cells) / sweep_s
        m["tv.sweep.converged_frac"] = sum(r["converged"] for r in rows) / len(rows)
        if serial is not None and "iter_s" in serial:
            m["tv.sweep.parallel_eff"] = serial["iter_s"] / (
                plain["params"]["workers"] * sweep_s)
    return m


def missing_boundaries(workload: str, traced: dict) -> list:
    summary = traced.get("trace", {"spans": {}, "counts": {}})
    missing = [b for b in BOUNDARIES[workload]
               if summary["spans"].get(b, {}).get("count", 0) == 0]
    missing += [c for c in COUNTS[workload]
                if summary["counts"].get(c, 0) == 0]
    return missing


# -- one workload -----------------------------------------------------------

def params_for(workload: str, smoke: bool) -> dict:
    params = dict((wl.SMOKE_PARAMS if smoke else wl.PARAMS)[workload])
    if workload == "sweep64":  # nproc workers
        params["workers"] = len(os.sched_getaffinity(0))
    return params


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, reference: dict) -> dict:
    params = params_for(workload, smoke)
    run = Run(workload, params, seed)
    refs = wl.reference_items(workload, seed, smoke, reference)
    out = {"workload": workload, "seed": seed, "params": params}
    setups = []
    if trace or smoke:
        plain, traced, serial = traced_plan(run)
        ops = [plain, traced] + ([serial] if serial else [])
        measured = [plain]  # end-to-end figures only from untraced ops
        out["per_layer"] = per_layer(workload, plain, traced, serial)
        out["missing"] = missing_boundaries(workload, traced)
        out["spans_file"] = str(traced["workdir"] / "spans.csv")
    else:
        ops, setups = untraced_plan(run, seconds)
        measured = ops
    attempted, failed, reasons = check_ops(workload, ops, refs)
    out.update(attempted=attempted, failed=failed, reasons=reasons,
               ops=len(ops), setups=len(setups),
               op_lines=[f"{op['mode']}{' traced' if op['traced'] else ''} "
                         f"wall_s={_fmt(op.get('wall_s'))} "
                         f"setup_s={_fmt(op.get('setup_s'))} "
                         f"us_per_iter={_fmt(op.get('us_per_iter'))}"
                         for op in setups + ops],
               end_to_end=end_to_end(measured, setups, attempted, failed))
    for op in ops + setups:
        _clean(op["workdir"])
    return out


def _clean(workdir: Path) -> None:
    """Outputs are checked by now; keep only the spans."""
    for path in workdir.glob("*"):
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name != "spans.csv":
            path.unlink()
    if not any(workdir.iterdir()):
        workdir.rmdir()


# -- output -----------------------------------------------------------------

def _fmt(v) -> str:
    return "nan" if v is None or (isinstance(v, float) and math.isnan(v)) else f"{v:.6g}"


def load_metrics() -> tuple[tuple, dict]:
    """End-to-end (name, unit) pairs and per-layer units, as
    BENCHMARK.json at the repository root declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return (tuple((m["name"], m["unit"]) for m in spec["end_to_end"]),
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def print_report(res: dict, trace: bool, smoke: bool,
                 end_to_end: tuple, per_layer_units: dict) -> None:
    mode = "smoke" if smoke else ("traced" if trace else "untraced")
    print(f"== {res['workload']} seed={res['seed']} {mode}: "
          f"{res['ops']} operations, {res['setups']} set-up-only, "
          f"params={json.dumps(res['params'])}")
    for name, unit in end_to_end + TABLE_ONLY:
        s = res["end_to_end"][name]
        print(f"  {name:<16} {unit:<6} median {_fmt(s['median']):>12}  "
              f"{s['high_label']} {_fmt(s['high']):>12}  n={s['n']}")
    for line in res["op_lines"]:
        print(f"  op: {line}")
    print(f"  attempted={res['attempted']} failed={res['failed']}")
    for reason in res["reasons"][:10]:
        print(f"  FAILED: {reason.strip().splitlines()[-1]}")
    if "per_layer" in res:
        for name, value in res["per_layer"].items():
            print(f"  {name:<36} {per_layer_units[name]:<6} {_fmt(value)}")
        print(f"  spans: {res['spans_file']}")
        for b in res["missing"]:
            print(f"  WARNING: layer boundary {b} never crossed",
                  file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny size, traced, with checks")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pdsplit" / "__init__.py").is_file():
        print(f"perfbench: no pdsplit package under {ROOT / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    warm = Run("accept64", {}, args.seed).op(mode="import")
    _clean(warm["workdir"])
    if warm.get("error") or not str(Path(warm["pdsplit"]).resolve()).startswith(
            str((ROOT / "src").resolve())):
        print(f"perfbench: cannot import pdsplit from src: {warm}",
              file=sys.stderr)
        return 2
    print("machine: " + json.dumps(warm["machine"]))
    end_to_end_units, per_layer_units = load_metrics()
    with open(HERE / "reference.json", encoding="utf-8") as f:
        reference = json.load(f)

    names = wl.WORKLOADS if args.smoke or args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, trace, args.smoke,
                           reference)
        if "per_layer" in res and res["per_layer"].keys() != per_layer_units.keys():
            raise SystemExit("perfbench: per-layer metrics differ from BENCHMARK.json")
        print_report(res, trace, args.smoke, end_to_end_units, per_layer_units)
        results.append(res)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    missing = [(r["workload"], b) for r in results for b in r.get("missing", [])]
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        if trace or args.smoke:
            for name, value in r["per_layer"].items():
                metrics[prefix + name] = {"value": value,
                                          "unit": per_layer_units[name]}
        else:
            for name, unit in end_to_end_units:
                metrics[prefix + name] = {
                    "value": r["end_to_end"][name]["median"], "unit": unit}
    correct = failed == 0 and attempted > 0
    if args.smoke and missing:
        for workload, b in missing:
            print(f"SMOKE FAILED: {workload}: layer boundary {b} never crossed",
                  file=sys.stderr)
        correct = False
    for m in metrics.values():  # a failed operation leaves no figure
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if args.smoke and not correct else 0


if __name__ == "__main__":
    sys.exit(main())
