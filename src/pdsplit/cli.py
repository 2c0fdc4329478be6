"""Command-line entry point.

Subcommands: ``solve-tv`` (one deblurring run with trace and image
output), ``sweep`` (step-size/relaxation study to CSV), ``drs-check``
(sequence-equivalence suite) and ``diagnose`` (step-size condition and
small-scale metric diagnostics).

``solve-tv``, ``sweep`` and ``diagnose`` read the TV experiment the
same way: ``_FORMATS["tv"]`` maps config keys onto ``tv.TVInstance``
fields, whose defaults and checks are the only ones.

Exit codes: 0 success, 1 configuration error, 2 non-convergence
(including a run stopped by a non-finite iterate).
Configs are flat INI key/value files with sections.  ``[solver]
problem`` picks one key format of ``_FORMATS``, and any other section
or key is rejected, so sweeps stay diffable and reproducible.
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
    build_gaussian_blur,
    build_problem,
    psnr,
    run_tv_solver,
    sweep,
    tv_objective,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOCONV = 2

TRACE_COLUMNS = ("n", "residual", "objective")

# the sections and keys a config may hold, by its [solver] problem; the
# three TV commands share one format, so one file can drive them all.
# A TV key maps to the TVInstance field it sets (a missing key keeps
# that field's default), or to None when the commands read it
# themselves
_FORMATS = {
    "tv": {
        "image": {"n1": "n1", "n2": "n2", "peak": "peak", "source": None},
        "blur": {"size": "blur_size", "std": "blur_std"},
        "noise": {"std_rel": "noise_std_rel"},
        "solver": {
            "problem": None, "tau": None, "sigma1": None, "sigma2": None,
            "sigma3": None, "gamma1": None, "gamma2": None, "alpha": "alpha",
            "lambda": None, "eps": "eps", "max_iter": "max_iter", "seed": None,
        },
        "sweep": dict.fromkeys((
            "tau_values", "gamma1_values", "gamma2_values", "lambda_values",
            "seeds", "include_equal_sigma",
        )),
        "output": dict.fromkeys(("out_dir", "format")),
    },
    # a toy saddle problem for diagnose; n1 is its dimension
    "identity": {"image": {"n1": None},
                 "solver": dict.fromkeys(("problem", "tau", "sigma"))},
}


class ConfigError(ValueError):
    pass


def _load_config(path: str,
                 problems: tuple[str, ...] = ("tv",)
                 ) -> configparser.ConfigParser:
    """The parsed file, once its ``[solver] problem`` (default ``tv``)
    is one of ``problems`` and every section, key and ``[output]
    format`` fits that problem's format."""
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
    problem = cp.get("solver", "problem", fallback="tv")
    if problem not in problems:
        raise ConfigError(f"this command does not solve problem = "
                          f"{problem!r}; it solves {' or '.join(problems)}")
    known = _FORMATS[problem]
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"section [{section}] does not apply to "
                              f"problem = {problem}")
        for key in cp[section]:
            if key not in known[section]:
                raise ConfigError(f"key {key!r} in section [{section}] "
                                  f"does not apply to problem = {problem}")
    fmt = cp.get("output", "format", fallback="P5")
    if fmt.upper() not in ("P2", "P5"):
        raise ConfigError(
            f"unknown [output] format {fmt!r}; expected P2 or P5"
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
        for n, row in enumerate(trace):
            w.writerow([
                n,
                repr(row.residual),
                "" if row.objective is None else repr(row.objective),
            ])


def write_sweep_csv(path, rows) -> None:
    """One line per row, in ``SWEEP_COLUMNS`` order: floats by
    ``repr``, so they read back exactly, and booleans as true/false."""

    def text(value):
        if isinstance(value, bool):
            return str(value).lower()
        return repr(value) if isinstance(value, float) else value

    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(SWEEP_COLUMNS)
        w.writerows([text(row[c]) for c in SWEEP_COLUMNS] for row in rows)


def _instance(cp: configparser.ConfigParser, overrides: argparse.Namespace,
              **fixed) -> TVInstance:
    """The experiment a config describes: its keys that ``_FORMATS``
    maps to ``TVInstance`` fields, then ``--eps`` and ``--max-iter``
    where the command has them, then the fields in ``fixed``."""
    kinds = {f.name: type(f.default) for f in fields(TVInstance)}
    kwargs = {
        name: kinds[name](cp[section][key])
        for section, keys in _FORMATS["tv"].items()
        for key, name in keys.items()
        if name is not None and cp.has_option(section, key)
    }
    for name in ("eps", "max_iter"):
        if getattr(overrides, name, None) is not None:
            kwargs[name] = getattr(overrides, name)
    return TVInstance(**{**kwargs, **fixed})


def _out_dir(cp: configparser.ConfigParser,
             args: argparse.Namespace) -> Path:
    """``--out-dir``, else ``[output] out_dir``, else ``runs``; created."""
    out = args.out_dir or cp.get("output", "out_dir", fallback="runs")
    if not out:
        raise ConfigError("[output] out_dir is empty")
    Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _tv_setup(cp: configparser.ConfigParser, overrides: argparse.Namespace):
    """Build (cfg, observed, R, clean_or_None) from a config file and
    the command's ``--seed`` and, where it has one, ``--lambda``; what
    none of them sets keeps its ``TVInstance.config`` default."""
    source = cp.get("image", "source", fallback="synthetic")
    if source == "synthetic":
        instance = _instance(cp, overrides)
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
        R = build_gaussian_blur(n1, n2, instance.blur_size, instance.blur_std)
        observed = ImageGrid(pixels, instance.peak)

    sol = cp["solver"] if cp.has_section("solver") else {}
    kwargs = {name: kind(sol[key]) for key, name, kind in (
        ("tau", "tau", float), ("lambda", "relaxation", float),
        ("seed", "seed", int)) if key in sol}
    for name in ("relaxation", "seed"):
        if getattr(overrides, name, None) is not None:
            kwargs[name] = getattr(overrides, name)
    # explicit sigmas, boundary gammas or, when neither is given, the
    # shared equal sigma; a partial set names its first missing key
    for name, keys in (("sigmas", ("sigma1", "sigma2", "sigma3")),
                       ("gammas", ("gamma1", "gamma2"))):
        if any(key in sol for key in keys):
            kwargs[name] = tuple(float(_option(cp, "solver", key))
                                 for key in keys)
    cfg = instance.config(**kwargs)

    if source != "synthetic":
        return cfg, observed, R, None
    clean, R, observed = instance.observe(cfg.seed)
    return cfg, observed, R, clean


def cmd_solve_tv(args: argparse.Namespace) -> int:
    try:
        cp = _load_config(args.config)
        cfg, observed, R, clean = _tv_setup(cp, args)
        out_dir = _out_dir(cp, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    run = run_tv_solver(cfg, observed, R, record_objective=True)
    # quantize the dynamic range [0, peak] onto the 8-bit scale
    write_pgm(
        out_dir / "restored.pgm",
        run.image.pixels * (255.0 / observed.peak),
        maxval=255,
        ascii_format=cp.get("output", "format", fallback="").upper() == "P2",
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
        # --workers is checked, but the cells run one after another
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
        # the keys the file sets, then --lambda and --seed
        sw = cp["sweep"]
        kwargs = {key: sw.getboolean(key) if key == "include_equal_sigma"
                  else _ints(sw[key]) if key == "seeds" else _floats(sw[key])
                  for key in sw}
        if args.relaxation is not None:
            kwargs["lambda_values"] = (args.relaxation,)
        if args.seed is not None:
            kwargs["seeds"] = (args.seed,)
        grid = SweepGrid(**kwargs)
        instance = _instance(cp, args)
        # every cell is checked before the output directory exists
        configs = grid.configs(instance)
        out_dir = _out_dir(cp, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows = sweep(configs, instance)
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
    # the instances are dense dims x dims matrices, each inverted at
    # cubic cost: 5 took 3.9 s at --dims 1024 on a 2-core host
    for bad, rule in (
        (args.dims < 1, "--dims must be at least 1"),
        (args.iters < 1, "--iters must be at least 1"),
        (args.instances < 0, "--instances must be at least 0"),
        (args.dims > DENSE_DIM_LIMIT,
         f"--dims must be at most {DENSE_DIM_LIMIT}"),
        (args.instances * args.dims ** 3 > 5 * 1024 ** 3,
         "--instances * --dims**3 must be at most 5 * 1024**3"),
    ):
        if bad:
            print(f"config error: {rule}", file=sys.stderr)
            return EXIT_CONFIG
    rng = np.random.default_rng(args.seed)
    devs = []
    for _ in range(args.instances):
        p = _random_drs_instance(args.dims, rng)
        x0 = rng.standard_normal(args.dims)
        u0 = rng.standard_normal(args.dims)
        lams = rng.uniform(0.0, 2.0, size=args.iters)
        sched = RelaxationSchedule.from_sequence(lams)
        devs.append(equivalence_deviation(p, x0, u0, sched, args.iters))
    # zero-operator edge case: both sequences must coincide exactly
    zero = monotone_linear(0.0, 0.0)
    p0 = DRSProblem(A=zero, B=zero, upsilon=scalar_precond(1.0, args.dims))
    x0 = rng.standard_normal(args.dims)
    u0 = np.zeros(args.dims)
    devs.append(equivalence_deviation(
        p0, x0, u0, RelaxationSchedule.constant(1.3), args.iters
    ))
    # np.max keeps a NaN, which then fails the gate
    worst = float(np.max(devs))
    print(f"max deviation over {args.instances} instances "
          f"({args.iters} iterations): {worst:.3e}")
    return EXIT_OK if worst <= 1e-10 else EXIT_NOCONV


def cmd_diagnose(args: argparse.Namespace) -> int:
    try:
        cp = _load_config(args.config, ("tv", "identity"))
        if cp.get("solver", "problem", fallback="tv") == "tv":
            cfg, observed, R, _ = _tv_setup(cp, args)
            problem = build_problem(cfg, observed, R)
        else:
            dim = cp.getint("image", "n1", fallback=4)
            if dim < 1:
                raise ConfigError(f"n1 must be at least 1, got {dim}")
            tau = cp.getfloat("solver", "tau", fallback=1.0)
            sig = cp.getfloat("solver", "sigma", fallback=1.0)
            problem = PDProblem(
                A=zero_operator(),
                blocks=((zero_operator(), identity_op(dim)),),
                upsilon=scalar_precond(tau, dim),
                sigmas=(scalar_precond(sig, dim),),
            )
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    cond = step_condition(problem)
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
