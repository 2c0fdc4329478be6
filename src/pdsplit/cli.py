"""Command-line entry point.

Subcommands: ``solve-tv`` (one deblurring run with trace and image
output), ``sweep`` (step-size/relaxation study to CSV), ``drs-check``
(sequence-equivalence suite) and ``diagnose`` (step-size condition and
small-scale metric diagnostics).

Exit codes: 0 success, 1 configuration error, 2 non-convergence
(including a run stopped by a non-finite iterate).
Configs are flat INI key/value files with sections; unknown keys are
rejected so sweeps stay diffable and reproducible.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .drs import DRSProblem, equivalence_deviation
from .km import RelaxationSchedule
from .linalg import (
    dense_range_diagnostics,
    hvector,
    identity_op,
    scalar_precond,
)
from .monotone import affine_operator, monotone_linear, zero_operator
from .pgm import read_pgm, write_pgm
from .primal_dual import PDProblem, step_condition
from .tv import (
    ImageGrid,
    SweepGrid,
    SWEEP_COLUMNS,
    TVConfig,
    TVInstance,
    add_gaussian_noise,
    boundary_sigmas,
    build_gaussian_blur,
    build_problem,
    check_config,
    equal_critical_sigma,
    gradient_norm_sq,
    psnr,
    run_tv_solver,
    sweep,
    synthetic_image,
    tv_objective,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOCONV = 2

TRACE_COLUMNS = ("n", "residual", "objective")

_KNOWN_KEYS = {
    "image": {"n1", "n2", "peak", "source"},
    "blur": {"size", "std"},
    "noise": {"std_rel"},
    "solver": {
        "problem", "tau", "sigma", "sigma1", "sigma2", "sigma3",
        "gamma1", "gamma2", "stepsizes", "alpha", "lambda", "eps",
        "max_iter", "seed",
    },
    "sweep": {
        "tau_values", "gamma1_values", "gamma2_values", "lambda_values",
        "seeds", "include_equal_sigma",
    },
    "output": {"out_dir", "format"},
}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in cp.sections():
        allowed = _KNOWN_KEYS.get(section)
        if allowed is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]"
                )
    return cp


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def write_trace_csv(path, trace) -> None:
    """Per-iteration trace; deliberately excludes wall time so reruns
    with the same seed are byte-identical."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(TRACE_COLUMNS)
        for row in trace:
            w.writerow([
                row.n,
                repr(row.residual),
                "" if row.objective is None else repr(row.objective),
            ])


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(SWEEP_COLUMNS)
        for row in rows:
            w.writerow([
                repr(row["tau"]), repr(row["sigma1"]), repr(row["sigma2"]),
                repr(row["sigma3"]), repr(row["lambda"]), row["seed"],
                row["iterations"], str(bool(row["converged"])).lower(),
                repr(row["final_residual"]), repr(row["objective"]),
                repr(row["psnr"]), repr(row["wall_ms"]), row["error"],
            ])


def _tv_setup(cp: configparser.ConfigParser, overrides: argparse.Namespace):
    """Build (cfg, observed, R, clean_or_None) from a config file."""
    img = cp["image"] if cp.has_section("image") else {}
    peak = float(img.get("peak", 255.0))
    source = img.get("source", "synthetic")
    if source == "synthetic":
        n1 = int(img.get("n1", 64))
        n2 = int(img.get("n2", 64))
    else:
        pixels, maxval = read_pgm(source)
        n1, n2 = pixels.shape
        for key, n in (("n1", n1), ("n2", n2)):
            if key in img and int(img[key]) != n:
                raise ConfigError(
                    f"{key} = {img[key]} contradicts the {n1}x{n2} "
                    f"image {source!r}"
                )

    blur = cp["blur"] if cp.has_section("blur") else {}
    size = int(blur.get("size", 9))
    std = float(blur.get("std", 4.0))

    noise = cp["noise"] if cp.has_section("noise") else {}
    std_rel = float(noise.get("std_rel", 1e-3))

    sol = cp["solver"] if cp.has_section("solver") else {}
    tau = float(sol.get("tau", 0.2))
    alpha = float(sol.get("alpha", 0.01))
    lam = float(sol.get("lambda", 1.0))
    eps = float(sol.get("eps", 1e-8))
    max_iter = int(sol.get("max_iter", 100000))
    seed = int(sol.get("seed", 0))

    if overrides.relaxation is not None:
        lam = overrides.relaxation
    if overrides.eps is not None:
        eps = overrides.eps
    if overrides.max_iter is not None:
        max_iter = overrides.max_iter
    if overrides.seed is not None:
        seed = overrides.seed

    mode = sol.get("stepsizes")
    if mode is None:
        if "sigma1" in sol:
            mode = "explicit"
        elif "gamma1" in sol:
            mode = "gamma"
        else:
            mode = "equal"
    d1_sq = gradient_norm_sq(n1)
    d2_sq = gradient_norm_sq(n2)
    if mode == "explicit":
        sigmas = (
            float(sol["sigma1"]), float(sol["sigma2"]), float(sol["sigma3"])
        )
    elif mode == "gamma":
        sigmas = boundary_sigmas(
            tau, float(sol["gamma1"]), float(sol["gamma2"]), d1_sq, d2_sq
        )
    elif mode == "equal":
        s = equal_critical_sigma(tau, d1_sq, d2_sq)
        sigmas = (s, s, s)
    else:
        raise ConfigError(f"unknown stepsizes mode {mode!r}")

    cfg = TVConfig(
        tau=tau, sigma1=sigmas[0], sigma2=sigmas[1], sigma3=sigmas[2],
        alpha=alpha, relaxation=lam, eps=eps, max_iter=max_iter,
        seed=seed, blur_size=size, blur_std=std, noise_std_rel=std_rel,
    )

    R = build_gaussian_blur(n1, n2, size, std)
    if source == "synthetic":
        clean = synthetic_image(n1, n2, peak)
        blurred = ImageGrid(
            R.forward(clean.pixels.ravel()).reshape(clean.shape), peak
        )
        observed = add_gaussian_noise(blurred, std_rel, seed)
    else:
        observed = ImageGrid(pixels, float(maxval))
        clean = None
    check_config(cfg, observed.shape)
    return cfg, observed, R, clean


def cmd_solve_tv(args: argparse.Namespace) -> int:
    try:
        cp = _load_config(args.config)
        cfg, observed, R, clean = _tv_setup(cp, args)
        out_dir = Path(
            args.out_dir
            or (cp["output"].get("out_dir", "runs")
                if cp.has_section("output") else "runs")
        )
        ascii_format = (
            cp.has_section("output")
            and cp["output"].get("format", "P5").upper() == "P2"
        )
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir.mkdir(parents=True, exist_ok=True)
    run = run_tv_solver(cfg, observed, R, record_objective=True)
    # quantize the dynamic range [0, peak] onto the 8-bit scale
    write_pgm(
        out_dir / "restored.pgm",
        run.image.pixels * (255.0 / observed.peak),
        maxval=255,
        ascii_format=ascii_format,
    )
    write_trace_csv(out_dir / "trace.csv", run.trace)
    b = observed.as_hvector()
    obj = tv_objective(run.image, R, b, cfg.alpha)
    quality = psnr(run.image, clean) if clean is not None else math.nan
    print(
        f"iterations={run.iterations} converged={run.converged} "
        f"residual={run.result.final_residual:.3e} "
        f"objective={obj:.6f} psnr={quality:.4f} "
        f"stop={run.result.stop_reason}"
    )
    return EXIT_OK if run.converged else EXIT_NOCONV


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        cp = _load_config(args.config)
        sw = cp["sweep"]
        grid = SweepGrid(
            tau_values=_floats(sw.get("tau_values", "0.2")),
            gamma1_values=_floats(sw.get("gamma1_values", "0.5 0.6 0.65")),
            gamma2_values=_floats(sw.get("gamma2_values", "0.001 0.005 0.01")),
            lambda_values=(
                (args.relaxation,) if args.relaxation is not None
                else _floats(sw.get("lambda_values", "1.0 1.5 1.9"))
            ),
            include_equal_sigma=sw.getboolean("include_equal_sigma", True),
        )
        seeds = ((args.seed,) if args.seed is not None
                 else _ints(sw.get("seeds", "0")))
        img = cp["image"] if cp.has_section("image") else {}
        blur = cp["blur"] if cp.has_section("blur") else {}
        noise = cp["noise"] if cp.has_section("noise") else {}
        sol = cp["solver"] if cp.has_section("solver") else {}
        instance = TVInstance(
            n1=int(img.get("n1", 64)),
            n2=int(img.get("n2", 64)),
            peak=float(img.get("peak", 255.0)),
            alpha=float(sol.get("alpha", 0.01)),
            blur_size=int(blur.get("size", 9)),
            blur_std=float(blur.get("std", 4.0)),
            noise_std_rel=float(noise.get("std_rel", 1e-3)),
            eps=float(args.eps if args.eps is not None
                      else sol.get("eps", 1e-8)),
            max_iter=int(args.max_iter if args.max_iter is not None
                         else sol.get("max_iter", 100000)),
        )
        out_dir = Path(
            args.out_dir
            or (cp["output"].get("out_dir", "runs")
                if cp.has_section("output") else "runs")
        )
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = sweep(grid, instance, seeds, workers=args.workers)
    write_sweep_csv(out_dir / "sweep.csv", rows)
    n_conv = sum(1 for r in rows if r["converged"])
    print(f"cells={len(rows)} converged={n_conv} -> {out_dir / 'sweep.csv'}")
    return EXIT_OK if n_conv > 0 else EXIT_NOCONV


def _random_drs_instance(dim: int, rng: np.random.Generator) -> DRSProblem:
    q1 = rng.standard_normal((dim, dim)) / math.sqrt(dim)
    q2 = rng.standard_normal((dim, dim)) / math.sqrt(dim)
    a = monotone_linear(q1 @ q1.T + 0.3 * np.eye(dim),
                        offset=rng.standard_normal(dim))
    b = monotone_linear(q2 @ q2.T + 0.3 * np.eye(dim),
                        offset=rng.standard_normal(dim))
    tau = float(rng.uniform(0.4, 2.0))
    return DRSProblem(A=a, B=b, upsilon=scalar_precond(tau, dim))


def cmd_drs_check(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.instances):
        p = _random_drs_instance(args.dims, rng)
        x0 = hvector(rng.standard_normal(args.dims))
        u0 = hvector(rng.standard_normal(args.dims))
        lams = rng.uniform(0.0, 2.0, size=args.iters)
        sched = RelaxationSchedule.from_sequence(lams)
        dev = equivalence_deviation(p, x0, u0, sched, args.iters)
        worst = max(worst, dev)
    # zero-operator edge case: both sequences must coincide exactly
    zero = affine_operator(0.0, 0.0)
    p0 = DRSProblem(A=zero, B=zero, upsilon=scalar_precond(1.0, args.dims))
    x0 = hvector(rng.standard_normal(args.dims))
    u0 = hvector(np.zeros(args.dims))
    dev0 = equivalence_deviation(
        p0, x0, u0, RelaxationSchedule.constant(1.3), args.iters
    )
    worst = max(worst, dev0)
    print(f"max deviation over {args.instances} instances "
          f"({args.iters} iterations): {worst:.3e}")
    return EXIT_OK if worst <= 1e-10 else EXIT_NOCONV


def cmd_diagnose(args: argparse.Namespace) -> int:
    try:
        cp = _load_config(args.config)
        sol = cp["solver"] if cp.has_section("solver") else {}
        kind = sol.get("problem", "tv")
        if kind == "tv":
            cfg, observed, R, _ = _tv_setup(cp, args)
            problem = build_problem(cfg, observed, R)
        elif kind == "identity":
            dim = int(cp["image"].get("n1", 4)) if cp.has_section("image") else 4
            tau = float(sol.get("tau", 1.0))
            sig = float(sol.get("sigma", sol.get("sigma1", 1.0)))
            problem = PDProblem(
                A=zero_operator(),
                blocks=((zero_operator(), identity_op(dim)),),
                upsilon=scalar_precond(tau, dim),
                sigmas=(scalar_precond(sig, dim),),
            )
        else:
            raise ConfigError(f"unknown problem kind {kind!r}")
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    cond = step_condition(problem, seed=args.seed or 0)
    print(f"step_condition_estimate={cond.norm_sq_estimate:.6f}")
    print(f"critical={str(cond.critical).lower()}")
    v_op = problem.saddle_operator()
    if v_op.total_dim <= 4096:
        diag = dense_range_diagnostics(v_op)
        kdim = v_op.total_dim - diag.rank
        print(f"rank={diag.rank} alpha={diag.min_nonzero_eig:.6g} "
              f"kernel_dim={kdim}")
    else:
        print("rank section: skipped (dense limit)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pdsplit",
        description="Relaxed primal-dual splitting toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=False, help="INI config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--lambda", dest="relaxation", type=float, default=None)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)

    p_solve = sub.add_parser("solve-tv", help="one deblurring run")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve_tv, needs_config=True)

    p_sweep = sub.add_parser("sweep", help="step-size/relaxation study")
    common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep, needs_config=True)

    p_drs = sub.add_parser("drs-check", help="sequence equivalence suite")
    p_drs.add_argument("--dims", type=int, default=16)
    p_drs.add_argument("--seed", type=int, default=0)
    p_drs.add_argument("--iters", type=int, default=100)
    p_drs.add_argument("--instances", type=int, default=5)
    p_drs.set_defaults(func=cmd_drs_check, needs_config=False)

    p_diag = sub.add_parser("diagnose", help="step-size condition report")
    common(p_diag)
    p_diag.set_defaults(func=cmd_diagnose, needs_config=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "needs_config", False) and not args.config:
        print("config error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
