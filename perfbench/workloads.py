"""The four benchmark workloads: inputs, one operation each, checks.

Every workload is a closed loop: one client runs one operation at a
time, each in a fresh process (``op.py``), so set-up includes the
interpreter start and the import.  The only concurrency is the sweep's
own worker pool.

Inputs come from the workload seed; the program receives only the
generated inputs (images, configs, matrices).  The acceptance solve is
the one exception: ``accept64`` is by definition the fixed acceptance
instance (noise seed 0), because its iteration count to eps=1e-8 swings
from 6672 to 10324 across noise seeds (measured, seeds 0-5), which
would put wall_s's seed-to-seed spread near 40%.

Functions reach pdsplit through module attributes at call time, so the
traced run's wrappers (``tracer.install``) see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("accept64", "paper256", "sweep64", "drs-equiv")

# The TV deblurring instance shared by the three TV workloads.
PEAK = 1.0
BLUR_SIZE = 9
BLUR_STD = 4.0
NOISE = 1e-3
TAU = 0.4
GAMMA1, GAMMA2 = 0.6, 0.01
SWEEP_GAMMA1 = (0.5, 0.6)
ALPHA = 0.01
LAMBDA = 1.9
ACCEPT_NOISE_SEED = 0
DRS_MAX_DEVIATION = 1e-10

# Per-workload sizes: full runs and the smoke mode's tiny versions.
PARAMS = {
    "accept64": {"n": 64, "eps": 1e-8},
    "paper256": {"n": 256, "eps": 1e-5},
    "sweep64": {"n": 64, "eps": 1e-5},
    "drs-equiv": {"dim": 64, "steps": 500, "instances": 8},
}
SMOKE_PARAMS = {
    "accept64": {"n": 24, "eps": 1e-4},
    "paper256": {"n": 32, "eps": 1e-3},
    "sweep64": {"n": 24, "eps": 1e-3},
    "drs-equiv": {"dim": 8, "steps": 20, "instances": 2},
}


def sweep_noise_seeds(seed: int) -> tuple[int, int]:
    return 2 * seed, 2 * seed + 1


class SetupDone(Exception):
    """Raised at the first fixed-point iteration of a set-up-only run."""


class Marker:
    """Timestamps the end of set-up, of the iterations and of the
    operation.

    As a km monitor its ``start`` runs just before the first
    fixed-point iteration; ``benchmark_marker`` keeps the tracer from
    counting it as a program monitor.
    """

    benchmark_marker = True

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.t_setup_end = None
        self.t_iter_end = None
        self.t_op_end = None

    def begin(self) -> None:
        if self.t_setup_end is None:
            self.t_setup_end = time.monotonic()
            if self.setup_only:
                raise SetupDone

    def end(self) -> None:
        self.t_iter_end = time.monotonic()

    def done(self) -> None:
        """The operation is over; what follows is the benchmark's checks."""
        self.t_op_end = time.monotonic()

    # km.Monitor interface
    def start(self, z0) -> None:
        self.begin()

    def observe(self, n, z, sz, z_next) -> None:
        pass


def _pd(name: str):
    return importlib.import_module(f"pdsplit.{name}")


# -- quality, computed by the benchmark itself --------------------------

def tv_objective(x: np.ndarray, R, b: np.ndarray) -> float:
    """0.5*||R x - b||^2 + alpha*(||D1 x||_1 + ||D2 x||_1) with forward
    differences (zero last difference)."""
    r = R.forward(x.ravel()) - b.ravel()
    tv = np.abs(np.diff(x, axis=0)).sum() + np.abs(np.diff(x, axis=1)).sum()
    return 0.5 * float(r @ r) + ALPHA * float(tv)


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    err = float(np.sum((x - ref) ** 2))
    return 10.0 * math.log10(PEAK ** 2 * x.size / err)


def tv_inputs(n: int, noise_seed: int):
    """Clean image, blur operator and noisy observation for one solve."""
    tv = _pd("tv")
    clean = tv.synthetic_image(n, n, PEAK)
    R = tv.build_gaussian_blur(n, n, BLUR_SIZE, BLUR_STD)
    blurred = tv.ImageGrid(
        R.forward(clean.pixels.ravel()).reshape(clean.shape), PEAK
    )
    return clean, R, tv.add_gaussian_noise(blurred, NOISE, noise_seed)


def observation_quality(clean, R, observed) -> dict:
    b = observed.pixels
    return {"obs_objective": tv_objective(b, R, b),
            "obs_psnr": psnr(b, clean.pixels)}


def _image_item(run, clean, R, observed) -> dict:
    x = run.image.pixels
    return {
        "iterations": run.iterations,
        "converged": bool(run.converged),
        "finite": bool(np.all(np.isfinite(x))),
        "objective": tv_objective(x, R, observed.pixels),
        "psnr": psnr(x, clean.pixels),
        **observation_quality(clean, R, observed),
    }


# -- operations (run inside op.py) ---------------------------------------

def op_accept64(p, seed, index, marker, workdir):
    """The acceptance solve through the library call run_tv_solver."""
    tv = _pd("tv")
    n = p["n"]
    clean, R, observed = tv_inputs(n, ACCEPT_NOISE_SEED)
    d_sq = tv.gradient_norm_sq(n)
    s1, s2, s3 = tv.boundary_sigmas(TAU, GAMMA1, GAMMA2, d_sq, d_sq)
    cfg = tv.TVConfig(
        tau=TAU, sigma1=s1, sigma2=s2, sigma3=s3, alpha=ALPHA,
        relaxation=LAMBDA, eps=p["eps"], seed=ACCEPT_NOISE_SEED,
        blur_size=BLUR_SIZE, blur_std=BLUR_STD, noise_std_rel=NOISE,
    )
    run = tv.run_tv_solver(cfg, observed, R, monitors=(marker,))
    marker.end()
    marker.done()
    return [_image_item(run, clean, R, observed)], {"grid": n}


def _write_ini(path: Path, sections: dict) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tv_config(n: int, eps: float) -> dict:
    return {
        "image": {"n1": n, "n2": n, "peak": PEAK, "source": "synthetic"},
        "blur": {"size": BLUR_SIZE, "std": BLUR_STD},
        "noise": {"std_rel": NOISE},
        "solver": {"tau": TAU, "alpha": ALPHA, "lambda": LAMBDA, "eps": eps},
    }


def _cli_main(argv) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return _pd("cli").main(argv)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def op_paper256(p, seed, index, marker, workdir):
    """`pdsplit solve-tv` at paper scale; objective, trace and PGM out."""
    cli = _pd("cli")
    n = p["n"]
    conf = _tv_config(n, p["eps"])
    conf["solver"].update(gamma1=GAMMA1, gamma2=GAMMA2, seed=seed)
    _write_ini(workdir / "solve.ini", conf)
    out_dir = workdir / "out"
    real_solver = cli.run_tv_solver
    runs = []

    def marked(cfg, observed, R, monitors=(), **kwargs):
        run = real_solver(cfg, observed, R,
                          monitors=tuple(monitors) + (marker,), **kwargs)
        marker.end()
        runs.append(run)
        return run

    cli.run_tv_solver = marked
    code = _cli_main(["solve-tv", "--config", str(workdir / "solve.ini"),
                      "--out-dir", str(out_dir)])
    marker.done()
    clean, R, observed = tv_inputs(n, seed)
    item = _image_item(runs[0], clean, R, observed)
    with open(out_dir / "trace.csv", newline="", encoding="utf-8") as f:
        trace = list(csv.DictReader(f))
    item.update(
        exit_code=code,
        trace_rows=len(trace),
        trace_objective=float(trace[-1]["objective"]) if trace else math.nan,
        hashes={name: _sha256(out_dir / name)
                for name in ("trace.csv", "restored.pgm")},
    )
    return [item], {"grid": n}


def op_sweep64(p, seed, index, marker, workdir):
    """`pdsplit sweep` over the step-size grid with a worker pool."""
    cli = _pd("cli")
    n = p["n"]
    seeds = sweep_noise_seeds(seed)
    conf = _tv_config(n, p["eps"])
    conf["sweep"] = {
        "tau_values": TAU,
        "gamma1_values": " ".join(str(g) for g in SWEEP_GAMMA1),
        "gamma2_values": GAMMA2,
        "lambda_values": LAMBDA,
        "seeds": " ".join(str(s) for s in seeds),
        "include_equal_sigma": "true",
    }
    _write_ini(workdir / "sweep.ini", conf)
    out_dir = workdir / "out"
    real_sweep = cli.sweep

    def marked(*args, **kwargs):
        marker.begin()
        rows = real_sweep(*args, **kwargs)
        marker.end()
        return rows

    cli.sweep = marked
    code = _cli_main(["sweep", "--config", str(workdir / "sweep.ini"),
                      "--out-dir", str(out_dir),
                      "--workers", str(p["workers"])])
    marker.done()
    obs = {s: observation_quality(*tv_inputs(n, s)) for s in seeds}
    items = []
    with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            values = [float(row[k]) for k in
                      ("iterations", "final_residual", "objective", "psnr",
                       "wall_ms")]
            items.append({
                "iterations": int(row["iterations"]),
                "converged": row["converged"] == "true",
                "finite": all(math.isfinite(v) for v in values),
                "objective": float(row["objective"]),
                "psnr": float(row["psnr"]),
                "wall_ms": float(row["wall_ms"]),
                "exit_code": code,
                **obs[int(row["seed"])],
            })
    return items, {"grid": n, "workers": p["workers"]}


def op_drs(p, seed, index, marker, workdir):
    """equivalence_deviation over random dense instances, as
    `pdsplit drs-check` builds them; batch ``index`` of the run."""
    drs, km, linalg, monotone = (_pd(m) for m in
                                 ("drs", "km", "linalg", "monotone"))
    dim, steps = p["dim"], p["steps"]
    rng = np.random.default_rng([seed, index])
    cases = []
    for _ in range(p["instances"]):
        q1 = rng.standard_normal((dim, dim)) / math.sqrt(dim)
        q2 = rng.standard_normal((dim, dim)) / math.sqrt(dim)
        a = monotone.monotone_linear(q1 @ q1.T + 0.3 * np.eye(dim),
                                     offset=rng.standard_normal(dim))
        b = monotone.monotone_linear(q2 @ q2.T + 0.3 * np.eye(dim),
                                     offset=rng.standard_normal(dim))
        tau = float(rng.uniform(0.4, 2.0))
        problem = drs.DRSProblem(A=a, B=b,
                                 upsilon=linalg.scalar_precond(tau, dim))
        x0 = linalg.hvector(rng.standard_normal(dim))
        u0 = linalg.hvector(rng.standard_normal(dim))
        sched = km.RelaxationSchedule.from_sequence(
            rng.uniform(0.0, 2.0, size=steps)
        )
        cases.append((problem, x0, u0, sched))
    marker.begin()
    items = []
    for problem, x0, u0, sched in cases:
        dev = drs.equivalence_deviation(problem, x0, u0, sched, steps)
        items.append({"deviation": dev, "finite": math.isfinite(dev),
                      "iterations": 2 * steps})
    marker.end()
    marker.done()
    return items, {"dim": dim}


OPS = {"accept64": op_accept64, "paper256": op_paper256,
       "sweep64": op_sweep64, "drs-equiv": op_drs}


def items_per_op(workload: str, params: dict) -> int:
    if workload == "sweep64":
        return (len(SWEEP_GAMMA1) + 1) * 2  # cells (+ equal sigma) x seeds
    if workload == "drs-equiv":
        return params["instances"]
    return 1


# -- checks (run in run.py) -----------------------------------------------

REL_TOL = 1e-10  # objective and PSNR against the recorded reference


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_item(workload: str, item: dict, ref: dict | None) -> str | None:
    """Reason the item is wrong, or None.  ``ref`` holds the recorded
    values for this item at the default seed, when they apply."""
    if workload == "drs-equiv":
        if not item["finite"]:
            return "non-finite deviation"
        if item["deviation"] > DRS_MAX_DEVIATION:
            return f"deviation {item['deviation']:.3e} > {DRS_MAX_DEVIATION}"
        return None
    if item.get("exit_code", 0) != 0:
        return f"exit code {item['exit_code']}"
    if not item["converged"]:
        return "not converged"
    if not item["finite"]:
        return "non-finite output"
    if not item["psnr"] > item["obs_psnr"]:
        return f"psnr {item['psnr']:.4f} not above observation {item['obs_psnr']:.4f}"
    if not item["objective"] < item["obs_objective"]:
        return "objective not below the observation's"
    if "trace_rows" in item:
        if item["trace_rows"] != item["iterations"]:
            return "trace.csv rows != iterations"
        if not _close(item["trace_objective"], item["objective"]):
            return "trace.csv final objective != restored objective"
    if ref is not None:
        if item["iterations"] != ref["iterations"]:
            return f"iterations {item['iterations']} != reference {ref['iterations']}"
        for key in ("objective", "psnr"):
            if not _close(item[key], ref[key]):
                return f"{key} {item[key]!r} != reference {ref[key]!r}"
    return None


def reference_items(workload: str, seed: int, smoke: bool,
                    reference: dict) -> list | None:
    """Recorded per-item values that apply to this run, if any."""
    if smoke:
        return None
    if workload == "accept64":
        return reference.get("accept64")
    if seed == 0:
        return reference.get(workload)
    return None
