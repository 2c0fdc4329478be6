"""Command-line entry point.

Subcommands: ``solve-tv`` (one deblurring run with trace and image
output), ``sweep`` (step-size/relaxation study to CSV), ``drs-check``
(sequence-equivalence suite) and ``diagnose`` (step-size condition and
small-scale metric diagnostics).

``solve-tv``, ``sweep`` and ``diagnose`` read the TV experiment the
same way: ``_INSTANCE_KEYS`` maps config keys onto ``tv.TVInstance``,
whose field defaults and checks are the only ones.

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
from dataclasses import fields
from pathlib import Path

import numpy as np

from .drs import DRSProblem, equivalence_deviation
from .km import RelaxationSchedule
from .linalg import (
    DENSE_DIM_LIMIT,
    dense_range_diagnostics,
    hvector,
    identity_op,
    scalar_precond,
)
from .monotone import monotone_linear, zero_operator
from .pgm import read_pgm, write_pgm
from .primal_dual import PDProblem, step_condition
from .tv import (
    ImageGrid,
    SweepGrid,
    SWEEP_COLUMNS,
    TVInstance,
    boundary_sigmas,
    build_gaussian_blur,
    build_problem,
    check_config,
    equal_critical_sigma,
    gradient_norm_sq,
    psnr,
    run_tv_solver,
    sweep,
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
        "gamma1", "gamma2", "alpha", "lambda", "eps",
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
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        # a missing section header, a repeated key or section, a bad
        # line; the parser's message spans several lines
        raise ConfigError(" ".join(str(exc).split())) from exc
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


def _option(cp: configparser.ConfigParser, section: str, key: str) -> str:
    """The text of a key the command cannot run without."""
    if not cp.has_option(section, key):
        raise ConfigError(f"missing key {key!r} in section [{section}]")
    return cp[section][key]


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


# the config keys of the TV experiment, by the TVInstance field each
# sets; a missing key keeps that field's default
_INSTANCE_KEYS = {
    ("image", "n1"): "n1",
    ("image", "n2"): "n2",
    ("image", "peak"): "peak",
    ("blur", "size"): "blur_size",
    ("blur", "std"): "blur_std",
    ("noise", "std_rel"): "noise_std_rel",
    ("solver", "alpha"): "alpha",
    ("solver", "eps"): "eps",
    ("solver", "max_iter"): "max_iter",
}


def _instance(cp: configparser.ConfigParser, overrides: argparse.Namespace,
              **fixed) -> TVInstance:
    """The experiment a config describes: its ``_INSTANCE_KEYS``, then
    ``--eps`` and ``--max-iter`` where the command has them, then the
    fields in ``fixed``."""
    kinds = {f.name: type(f.default) for f in fields(TVInstance)}
    kwargs = {
        name: kinds[name](cp[section][key])
        for (section, key), name in _INSTANCE_KEYS.items()
        if cp.has_option(section, key)
    }
    for name in ("eps", "max_iter"):
        if getattr(overrides, name, None) is not None:
            kwargs[name] = getattr(overrides, name)
    return TVInstance(**{**kwargs, **fixed})


def _out_dir(cp: configparser.ConfigParser,
             args: argparse.Namespace) -> Path:
    return Path(args.out_dir
                or cp.get("output", "out_dir", fallback="runs"))


def _tv_setup(cp: configparser.ConfigParser, overrides: argparse.Namespace):
    """Build (cfg, observed, R, clean_or_None) from a config file and
    the command's ``--seed`` and, where it has one, ``--lambda``."""
    sol = cp["solver"] if cp.has_section("solver") else {}
    tau = float(sol.get("tau", 0.2))
    lam = float(sol.get("lambda", 1.0))
    seed = int(sol.get("seed", 0))
    if getattr(overrides, "relaxation", None) is not None:
        lam = overrides.relaxation
    if overrides.seed is not None:
        seed = overrides.seed

    source = cp.get("image", "source", fallback="synthetic")
    if source == "synthetic":
        instance = _instance(cp, overrides)
        clean, R, observed = instance.observe(seed)
    else:
        pixels, maxval = read_pgm(source)
        n1, n2 = pixels.shape
        for key, n in (("n1", n1), ("n2", n2)):
            if cp.has_option("image", key) and int(cp["image"][key]) != n:
                raise ConfigError(
                    f"{key} = {cp['image'][key]} contradicts the {n1}x{n2} "
                    f"image {source!r}"
                )
        instance = _instance(cp, overrides, n1=n1, n2=n2, peak=float(maxval))
        R = build_gaussian_blur(n1, n2, instance.blur_size,
                                instance.blur_std)
        observed = ImageGrid(pixels, instance.peak)
        clean = None

    # the step sizes are explicit sigmas, boundary gammas or, when
    # neither is given, the shared equal sigma
    explicit = [k for k in ("sigma1", "sigma2", "sigma3") if k in sol]
    boundary = [k for k in ("gamma1", "gamma2") if k in sol]
    if explicit and boundary:
        raise ConfigError(
            f"step sizes given both ways ({', '.join(explicit + boundary)});"
            " give sigma1..sigma3 or gamma1 and gamma2"
        )
    d1_sq = gradient_norm_sq(instance.n1)
    d2_sq = gradient_norm_sq(instance.n2)
    if explicit:
        sigmas = tuple(float(_option(cp, "solver", key))
                       for key in ("sigma1", "sigma2", "sigma3"))
    elif boundary:
        sigmas = boundary_sigmas(
            tau, float(_option(cp, "solver", "gamma1")),
            float(_option(cp, "solver", "gamma2")), d1_sq, d2_sq
        )
    else:
        s = equal_critical_sigma(tau, d1_sq, d2_sq)
        sigmas = (s, s, s)

    cfg = instance.config(tau, sigmas, lam, seed)
    check_config(cfg, observed.shape)
    return cfg, observed, R, clean


def _output_format(cp: configparser.ConfigParser) -> str:
    """The PGM flavour of ``[output] format``, P2 or P5; every command
    that takes a config checks it, though only solve-tv writes images."""
    fmt = cp.get("output", "format", fallback="P5")
    if fmt.upper() not in ("P2", "P5"):
        raise ConfigError(
            f"unknown [output] format {fmt!r}; expected P2 or P5"
        )
    return fmt.upper()


def cmd_solve_tv(args: argparse.Namespace) -> int:
    try:
        cp = _load_config(args.config)
        cfg, observed, R, clean = _tv_setup(cp, args)
        fmt = _output_format(cp)
        out_dir = _out_dir(cp, args)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    run = run_tv_solver(cfg, observed, R, record_objective=True)
    # quantize the dynamic range [0, peak] onto the 8-bit scale
    write_pgm(
        out_dir / "restored.pgm",
        run.image.pixels * (255.0 / observed.peak),
        maxval=255,
        ascii_format=fmt == "P2",
    )
    write_trace_csv(out_dir / "trace.csv", run.trace)
    obj = tv_objective(run.image, run.fit, cfg.alpha)
    quality = psnr(run.image, clean) if clean is not None else math.nan
    print(
        f"iterations={run.iterations} converged={run.converged} "
        f"residual={run.final_residual:.3e} "
        f"objective={obj:.6f} psnr={quality:.4f} "
        f"stop={run.stop_reason}"
    )
    return EXIT_OK if run.converged else EXIT_NOCONV


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        cp = _load_config(args.config)
        _output_format(cp)
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got "
                              f"{args.workers}")
        source = cp.get("image", "source", fallback="synthetic")
        if source != "synthetic":
            # sweep rows score PSNR against the clean synthetic image
            raise ConfigError(
                f"sweep needs the synthetic image, got source {source!r}"
            )
        if not cp.has_section("sweep"):
            raise ConfigError("missing section [sweep]")
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
        if not seeds or any(seed < 0 for seed in seeds):
            raise ConfigError(
                f"seeds must be a nonempty list of nonnegative integers, "
                f"got {seeds}"
            )
        instance = _instance(cp, args)
        out_dir = _out_dir(cp, args)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

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
    for name, low in (("dims", 1), ("iters", 1), ("instances", 0)):
        if getattr(args, name) < low:
            print(f"config error: --{name} must be at least {low}",
                  file=sys.stderr)
            return EXIT_CONFIG
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
    zero = monotone_linear(0.0, 0.0)
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
        _output_format(cp)
        sol = cp["solver"] if cp.has_section("solver") else {}
        kind = sol.get("problem", "tv")
        if kind == "tv":
            cfg, observed, R, _ = _tv_setup(cp, args)
            problem = build_problem(cfg, observed, R)
        elif kind == "identity":
            # n1 is the toy problem's dimension here, not an image side
            dim = cp.getint("image", "n1", fallback=4)
            if dim < 1:
                raise ConfigError(f"n1 must be at least 1, got {dim}")
            tau = float(sol.get("tau", 1.0))
            sig = float(sol.get("sigma", sol.get("sigma1", 1.0)))
            problem = PDProblem(
                A=zero_operator(),
                blocks=((zero_operator(), identity_op(dim)),),
                upsilon=scalar_precond(tau, dim),
                sigmas=(scalar_precond(sig, dim),),
            )
            unread = [k for k in ("gamma1", "gamma2") if k in sol]
            if unread:
                raise ConfigError(
                    f"key {unread[0]!r} in section [solver] does not apply "
                    "to problem = identity"
                )
        else:
            raise ConfigError(f"unknown problem kind {kind!r}")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    cond = step_condition(problem, seed=args.seed or 0)
    print(f"step_condition_estimate={cond.norm_sq_estimate:.6f}")
    print(f"critical={str(cond.critical).lower()}")
    if problem.total_dim <= DENSE_DIM_LIMIT:
        diag = dense_range_diagnostics(problem.metric_matrix())
        kdim = problem.total_dim - diag.rank
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

    def config_options(p):
        p.add_argument("--config", required=False, help="INI config path")
        p.add_argument("--seed", type=int, default=None)

    def run_options(p):
        config_options(p)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--lambda", dest="relaxation", type=float, default=None)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)

    p_solve = sub.add_parser("solve-tv", help="one deblurring run")
    run_options(p_solve)
    p_solve.set_defaults(func=cmd_solve_tv, needs_config=True)

    p_sweep = sub.add_parser("sweep", help="step-size/relaxation study")
    run_options(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep, needs_config=True)

    p_drs = sub.add_parser("drs-check", help="sequence equivalence suite")
    p_drs.add_argument("--dims", type=int, default=16)
    p_drs.add_argument("--seed", type=int, default=0)
    p_drs.add_argument("--iters", type=int, default=100)
    p_drs.add_argument("--instances", type=int, default=5)
    p_drs.set_defaults(func=cmd_drs_check, needs_config=False)

    p_diag = sub.add_parser("diagnose", help="step-size condition report")
    config_options(p_diag)
    p_diag.set_defaults(func=cmd_diagnose, needs_config=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "needs_config", False) and not args.config:
        print("config error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and args.seed < 0:
        print("config error: --seed must be nonnegative", file=sys.stderr)
        return EXIT_CONFIG
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
