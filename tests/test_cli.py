import csv
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pdsplit import cli
from pdsplit.cli import _FORMATS, main
from pdsplit.pgm import read_pgm

SOLVE_CONFIG = """
[image]
n1 = 32
n2 = 32
peak = 1.0
source = synthetic

[solver]
tau = 0.4
gamma1 = 0.6
gamma2 = 0.01
alpha = 0.01
lambda = 1.9
eps = 1e-5
max_iter = 20000
seed = 3

[output]
out_dir = {out}
"""

SWEEP_CONFIG = """
[image]
n1 = 16
n2 = 16
peak = 1.0

[sweep]
tau_values = 0.4
gamma1_values = 0.6
gamma2_values = 0.01
lambda_values = 1.9
seeds = 0
include_equal_sigma = true

[solver]
alpha = 0.01
eps = 1e-5
max_iter = 20000

[output]
out_dir = {out}
"""

IDENTITY_CONFIG = """
[image]
n1 = 4

[solver]
problem = identity
tau = 0.5
sigma = 1.0
"""


def write_config(tmp_path, text, name="run.ini", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return str(path)


class TestSolveTV:
    def test_smoke_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SOLVE_CONFIG, out=str(out))
        rc = main(["solve-tv", "--config", cfg])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "iterations=" in captured
        assert captured.rstrip().endswith("stop=eps")
        assert (out / "restored.pgm").exists()
        with open(out / "trace.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["n", "residual", "objective"]
        assert len(rows) > 2
        pixels, maxval = read_pgm(out / "restored.pgm")
        assert pixels.shape == (32, 32)

    def test_truncated_run_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SOLVE_CONFIG, out=str(out))
        rc = main(["solve-tv", "--config", cfg, "--eps", "1e-13",
                   "--max-iter", "5"])
        assert rc == 2
        with open(out / "trace.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 6  # header + 5 iterations

    def test_zero_relaxation_never_converges(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SOLVE_CONFIG, out=str(tmp_path / "o"))
        rc = main(["solve-tv", "--config", cfg, "--lambda", "0",
                   "--max-iter", "5"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "iterations=5 converged=False" in out
        assert out.rstrip().endswith("stop=max_iter")

    @pytest.mark.parametrize("lam", ["0", "2", "1e-12"])
    def test_relaxation_that_keeps_the_km_sum_below_one(self, tmp_path,
                                                        capsys, lam):
        # sum(lambda (2 - lambda)) stays below 1 over the run, so its
        # tiny relaxed steps certify nothing: the run ends at max_iter
        text = SOLVE_CONFIG.replace("n1 = 32\nn2 = 32", "n1 = 16\nn2 = 16")
        cfg = write_config(tmp_path, text, out=str(tmp_path / "o"))
        rc = main(["solve-tv", "--config", cfg, "--lambda", lam,
                   "--eps", "1e-8", "--max-iter", "50"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ""
        assert "iterations=50 converged=False" in captured.out
        assert captured.out.rstrip().endswith("stop=max_iter")

    def test_seed_option_runs_the_file_seed(self, tmp_path, capsys):
        # --seed 5 runs what [solver] seed = 5 runs, also over a file
        # that sets another seed
        def run(name, text, *extra):
            out = tmp_path / name
            cfg = write_config(tmp_path, text, name=f"{name}.ini",
                               out=str(out))
            rc = main(["solve-tv", "--config", cfg, "--max-iter", "40",
                       *extra])
            return (rc, capsys.readouterr(), (out / "trace.csv").read_bytes(),
                    (out / "restored.pgm").read_bytes())

        file5 = run("file5", SOLVE_CONFIG.replace("seed = 3", "seed = 5"))
        assert run("unset", SOLVE_CONFIG.replace("seed = 3\n", ""),
                   "--seed", "5") == file5
        assert run("over", SOLVE_CONFIG, "--seed", "5") == file5
        # the seed reaches the output: seed 3 gives another noise
        assert run("file3", SOLVE_CONFIG) != file5

    def test_black_image_is_a_fixed_point(self, tmp_path, capsys):
        # the zero start is an exact fixed point: S z = z = 0
        import numpy as np

        from pdsplit.pgm import write_pgm

        src = tmp_path / "black.pgm"
        write_pgm(src, np.zeros((16, 16)))
        text = "[image]\nsource = {src}\n[blur]\nsize = 3\n"
        cfg = write_config(tmp_path, text, src=src)
        rc = main(["solve-tv", "--config", cfg, "--out-dir",
                   str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "iterations=1 converged=True residual=0.000e+00" in out
        assert out.rstrip().endswith("stop=eps")

    def test_vanishing_blur_std_runs_without_warnings(self, tmp_path,
                                                      capsys):
        # the kernel's square overflows at std = 1e-300; exp(-inf) = 0
        # leaves the identity blur, and a run that succeeds writes
        # nothing to stderr
        import warnings

        text = SOLVE_CONFIG.replace("[solver]",
                                    "[blur]\nstd = 1e-300\n\n[solver]")
        cfg = write_config(tmp_path, text, out=str(tmp_path / "o"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve-tv", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_run_exit_2(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        from pdsplit.monotone import QuadraticDataFit

        monkeypatch.setattr(QuadraticDataFit, "resolvent",
                            lambda self, tau, x: np.full_like(x, np.inf))
        cfg = write_config(tmp_path, SOLVE_CONFIG, out=str(tmp_path / "o"))
        rc = main(["solve-tv", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ""
        assert "iterations=1 converged=False" in captured.out
        assert captured.out.rstrip().endswith("stop=nonfinite")

    # ``extra`` is command-line arguments, edits {old: new} of the
    # command's config text, or a whole config text.  Each input has
    # its own id, so a new one renames none of the others; the older
    # ids keep the index-based names they were first collected under
    @pytest.mark.parametrize("command,extra", [
        pytest.param("solve-tv", ["--eps", "-1"], id="solve-tv-extra0"),
        pytest.param("solve-tv", ["--eps", "0"], id="solve-tv-extra1"),
        pytest.param("solve-tv", ["--max-iter", "0"], id="solve-tv-extra2"),
        pytest.param("solve-tv", ["--lambda", "2.5"], id="solve-tv-extra3"),
        # tau * (sigma1 ||D1||^2 + sigma2 ||D2||^2 + sigma3) > 1
        pytest.param("solve-tv", {"gamma1 = 0.6\ngamma2 = 0.01":
                                  "sigma1 = 0.5\nsigma2 = 0.5\nsigma3 = 0.5"},
                     id="solve-tv-extra4"),
        pytest.param("sweep", ["--eps", "0"], id="sweep-extra5"),
        pytest.param("sweep", ["--max-iter", "0"], id="sweep-extra6"),
        pytest.param("solve-tv", {"alpha = 0.01": "alpha = -1"},
                     id="solve-tv-extra7"),
        pytest.param("sweep", {"[sweep]": "[blur]\nsize = 8\n\n[sweep]"},
                     id="sweep-extra8"),
        pytest.param("sweep", {"n1 = 16": "n1 = 1"}, id="sweep-extra9"),
        pytest.param("sweep", {"tau_values = 0.4": "tau_values = -0.2"},
                     id="sweep-extra10"),
        pytest.param("sweep", {"gamma1_values = 0.6": "gamma1_values = 1.5"},
                     id="sweep-extra11"),
        pytest.param("drs-check", ["--dims", "0"], id="drs-check-extra12"),
        pytest.param("drs-check", ["--iters", "0"], id="drs-check-extra13"),
        pytest.param("drs-check", ["--seed", "-1"], id="drs-check-extra14"),
        pytest.param("sweep", {"seeds = 0": "seeds = 0 -3"},
                     id="sweep-extra15"),
        pytest.param("diagnose",
                     {"n1 = 32": "n1 = 0",
                      "[solver]\n": "[solver]\nproblem = identity\n"},
                     id="diagnose-extra16"),
        # sweep rows score PSNR against the clean synthetic image
        pytest.param("sweep",
                     {"peak = 1.0\n": "peak = 1.0\nsource = missing.pgm\n"},
                     id="sweep-extra17"),
        # NaN fails every check, before any power iteration
        pytest.param("solve-tv", {"tau = 0.4": "tau = nan"},
                     id="solve-tv-extra18"),
        pytest.param("solve-tv", {"gamma1 = 0.6\ngamma2 = 0.01":
                                  "sigma1 = nan\nsigma2 = 0.1\nsigma3 = 0.1"},
                     id="solve-tv-extra19"),
        pytest.param("solve-tv", {"alpha = 0.01": "alpha = nan"},
                     id="solve-tv-extra20"),
        pytest.param("diagnose",
                     {"[solver]\n": "[solver]\nproblem = identity\n",
                      "tau = 0.4": "tau = nan"},
                     id="diagnose-extra21"),
        pytest.param("sweep", {"alpha = 0.01": "alpha = nan"},
                     id="sweep-extra22"),
        # a sweep with nothing to run
        pytest.param("sweep", {"tau_values = 0.4": "tau_values ="},
                     id="sweep-extra23"),
        pytest.param("sweep", {"lambda_values = 1.9": "lambda_values ="},
                     id="sweep-extra24"),
        pytest.param("sweep", {"seeds = 0": "seeds ="}, id="sweep-extra25"),
        pytest.param("sweep",
                     {"gamma1_values = 0.6": "gamma1_values =",
                      "gamma2_values = 0.01": "gamma2_values =",
                      "include_equal_sigma = true":
                      "include_equal_sigma = false"},
                     id="sweep-extra26"),
        pytest.param("sweep", ["--workers", "0"], id="sweep-extra27"),
        pytest.param("sweep", ["--workers", "-3"], id="sweep-extra28"),
        # files the config parser rejects: keys before any section
        # header, a key given twice, a lone % (no interpolation)
        pytest.param("solve-tv", {"[image]\n": ""}, id="solve-tv-extra29"),
        pytest.param("diagnose", {"[image]\n": ""}, id="diagnose-extra30"),
        pytest.param("sweep", {"seeds = 0": "seeds = 0\nseeds = 1"},
                     id="sweep-extra31"),
        pytest.param("solve-tv", {"tau = 0.4": "tau = 0.4\ntau = 0.5"},
                     id="solve-tv-extra32"),
        pytest.param("solve-tv", {"tau = 0.4": "tau = 0.4%"},
                     id="solve-tv-extra33"),
        # step sizes given both as sigmas and as gammas
        pytest.param("solve-tv",
                     {"gamma2 = 0.01": "gamma2 = 0.01\nsigma3 = 0.1"},
                     id="solve-tv-extra34"),
        pytest.param("diagnose",
                     {"gamma1 = 0.6": "gamma1 = 0.6\nsigma1 = 0.1\n"
                                      "sigma2 = 0.1\nsigma3 = 0.1"},
                     id="diagnose-extra35"),
        # every command that takes a config checks the image format
        pytest.param("sweep",
                     {"out_dir = {out}": "out_dir = {out}\nformat = P7"},
                     id="sweep-extra36"),
        pytest.param("diagnose",
                     {"out_dir = {out}": "out_dir = {out}\nformat = P7"},
                     id="diagnose-extra37"),
        # the identity problem reads no gammas
        pytest.param("diagnose",
                     {"[solver]\n": "[solver]\nproblem = identity\n"},
                     id="diagnose-extra38"),
        pytest.param("diagnose",
                     {"[solver]\n": "[solver]\nproblem = identity\n",
                      "gamma1 = 0.6\n": ""},
                     id="diagnose-extra39"),
        # eps = inf would pass the first step; alpha = inf has no solution
        pytest.param("solve-tv", ["--eps", "inf"], id="solve-tv-extra40"),
        pytest.param("sweep", ["--eps", "inf"], id="sweep-extra41"),
        pytest.param("solve-tv", {"alpha = 0.01": "alpha = inf"},
                     id="solve-tv-extra42"),
        pytest.param("sweep", {"alpha = 0.01": "alpha = inf"},
                     id="sweep-extra43"),
        # a key outside the identity problem's format (IDENTITY_CONFIG
        # itself passes diagnose), or one outside the TV format
        pytest.param("diagnose", IDENTITY_CONFIG + "alpha = -7\n",
                     id="diagnose-identity-alpha"),
        pytest.param("diagnose", IDENTITY_CONFIG + "lambda = 9\n",
                     id="diagnose-identity-lambda"),
        pytest.param("diagnose", IDENTITY_CONFIG + "eps = -1\n",
                     id="diagnose-identity-eps"),
        pytest.param("diagnose", IDENTITY_CONFIG + "max_iter = 0\n",
                     id="diagnose-identity-max-iter"),
        pytest.param("diagnose", IDENTITY_CONFIG + "\n[blur]\nsize = 3\n",
                     id="diagnose-identity-blur"),
        pytest.param("diagnose",
                     IDENTITY_CONFIG + "\n[output]\nout_dir = nowhere\n",
                     id="diagnose-identity-out-dir"),
        pytest.param("diagnose", IDENTITY_CONFIG + "sigma1 = 0.5\n",
                     id="diagnose-identity-sigma1"),
        pytest.param("solve-tv",
                     {"alpha = 0.01": "alpha = 0.01\nsigma = 123"},
                     id="solve-tv-extra51"),
        # the identity problem's own checks, on a file of its format
        pytest.param("diagnose", IDENTITY_CONFIG.replace("n1 = 4", "n1 = 0"),
                     id="diagnose-identity-n1"),
        pytest.param("diagnose",
                     IDENTITY_CONFIG.replace("tau = 0.5", "tau = nan"),
                     id="diagnose-identity-tau-nan"),
        # a problem the command does not solve
        pytest.param("solve-tv", IDENTITY_CONFIG, id="solve-tv-identity"),
        pytest.param("sweep",
                     {"[solver]\n": "[solver]\nproblem = identity\n"},
                     id="sweep-extra55"),
        pytest.param("diagnose",
                     {"[solver]\n": "[solver]\nproblem = bogus\n"},
                     id="diagnose-extra56"),
        # an infinite peak or noise level has no image; an infinite tau
        # gives zero sigmas
        pytest.param("sweep", {"peak = 1.0": "peak = inf"},
                     id="sweep-peak-inf"),
        pytest.param("solve-tv", {"peak = 1.0": "peak = inf"},
                     id="solve-tv-peak-inf"),
        pytest.param("sweep", {"[sweep]": "[noise]\nstd_rel = inf\n\n[sweep]"},
                     id="sweep-noise-inf"),
        pytest.param("sweep", {"tau_values = 0.4": "tau_values = inf"},
                     id="sweep-tau-inf"),
        # dense dims x dims instances; rejected before any is built
        pytest.param("drs-check", ["--dims", "100000"],
                     id="drs-check-dims-dense"),
        # a grid no machine can allocate, rejected before any allocation
        pytest.param("solve-tv", {"n1 = 32\nn2 = 32": "n1 = 1000000\n"
                                  "n2 = 1000000"}, id="solve-tv-grid-huge"),
        pytest.param("sweep", {"n1 = 16\n": "n1 = 99999999999999999999\n"},
                     id="sweep-grid-huge"),
        # values whose squares overflow
        pytest.param("sweep", {"peak = 1.0": "peak = 1e308"},
                     id="sweep-peak-1e308"),
        pytest.param("sweep", {"[sweep]": "[noise]\nstd_rel = 1e308\n\n"
                               "[sweep]"}, id="sweep-noise-1e308"),
        pytest.param("solve-tv", {"peak = 1.0": "peak = 1e160"},
                     id="solve-tv-peak-1e160"),
        pytest.param("solve-tv", {"[solver]": "[noise]\nstd_rel = 1e300\n\n"
                                  "[solver]"}, id="solve-tv-noise-1e300"),
        # drs-check work grows as instances * dims**3
        pytest.param("drs-check", ["--dims", "2048"], id="drs-check-dims-2048"),
        pytest.param("drs-check", ["--dims", "1024", "--instances", "6"],
                     id="drs-check-work"),
        # an empty output directory would be the working directory
        pytest.param("solve-tv", {"out_dir = {out}": "out_dir ="},
                     id="solve-tv-out-dir-empty"),
        pytest.param("sweep", {"out_dir = {out}": "out_dir ="},
                     id="sweep-out-dir-empty"),
    ])
    def test_bad_setting_is_config_error(self, tmp_path, capsys, monkeypatch,
                                         command, extra):
        monkeypatch.chdir(tmp_path)
        argv = [command]
        if command != "drs-check":
            text = SWEEP_CONFIG if command == "sweep" else SOLVE_CONFIG
            if isinstance(extra, str):
                text, extra = extra, []
            elif isinstance(extra, dict):
                for old, new in extra.items():
                    assert old in text
                    text = text.replace(old, new)
                extra = []
            cfg = write_config(tmp_path, text, out=str(tmp_path / "o"))
            argv += ["--config", cfg]
        rc = main(argv + extra)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert not (tmp_path / "o").exists()
        for name in ("trace.csv", "restored.pgm", "sweep.csv"):
            assert not (tmp_path / name).exists()

    # a config without a section or key the command needs names it
    @pytest.mark.parametrize("command,edits,name", [
        ("sweep", {"[sweep]\ntau_values = 0.4\ngamma1_values = 0.6\n"
                   "gamma2_values = 0.01\nlambda_values = 1.9\nseeds = 0\n"
                   "include_equal_sigma = true\n\n": ""}, "[sweep]"),
        ("solve-tv", {"gamma1 = 0.6\ngamma2 = 0.01":
                      "sigma1 = 0.1\nsigma3 = 0.1"}, "'sigma2'"),
        ("solve-tv", {"gamma1 = 0.6\ngamma2 = 0.01":
                      "sigma2 = 0.1\nsigma3 = 0.1"}, "'sigma1'"),
        ("solve-tv", {"gamma2 = 0.01\n": ""}, "'gamma2'"),
        ("diagnose", {"gamma2 = 0.01\n": ""}, "'gamma2'"),
    ])
    def test_missing_section_or_key_is_named(self, tmp_path, capsys, command,
                                             edits, name):
        text = SWEEP_CONFIG if command == "sweep" else SOLVE_CONFIG
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        cfg = write_config(tmp_path, text, out=str(tmp_path / "o"))
        rc = main([command, "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert "missing" in lines[0] and name in lines[0]

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_config(tmp_path, SOLVE_CONFIG, name="a.ini",
                            out=str(out1))
        cfg2 = write_config(tmp_path, SOLVE_CONFIG, name="b.ini",
                            out=str(out2))
        assert main(["solve-tv", "--config", cfg1]) == 0
        assert main(["solve-tv", "--config", cfg2]) == 0
        assert (out1 / "trace.csv").read_bytes() \
            == (out2 / "trace.csv").read_bytes()
        assert (out1 / "restored.pgm").read_bytes() \
            == (out2 / "restored.pgm").read_bytes()

    def test_unknown_key_rejected(self, tmp_path):
        text = SOLVE_CONFIG.replace("alpha = 0.01", "alpha = 0.01\nbogus = 2")
        cfg = write_config(tmp_path, text, out=str(tmp_path / "o"))
        assert main(["solve-tv", "--config", cfg]) == 1

    def test_missing_config_rejected(self):
        assert main(["solve-tv"]) == 1
        assert main(["solve-tv", "--config", "/nonexistent.ini"]) == 1

    def test_external_pgm_source(self, tmp_path, capsys):
        import numpy as np

        from pdsplit import synthetic_image
        from pdsplit.pgm import write_pgm

        img = synthetic_image(16, 16, peak=255.0)
        src = tmp_path / "observed.pgm"
        write_pgm(src, img.pixels)
        out = tmp_path / "out"
        text = f"""
[image]
source = {src}

[solver]
tau = 0.4
alpha = 0.01
lambda = 1.9
eps = 1e-4
max_iter = 5000
seed = 0

[output]
out_dir = {out}
"""
        cfg = write_config(tmp_path, text, name="ext.ini")
        rc = main(["solve-tv", "--config", cfg])
        assert rc == 0
        # no clean reference available: quality column prints as nan
        assert "psnr=nan" in capsys.readouterr().out
        assert (out / "restored.pgm").exists()


class TestOutput:
    @pytest.mark.parametrize("command,where", [
        ("solve-tv", "flag"), ("solve-tv", "config"), ("sweep", "flag"),
    ])
    def test_out_dir_naming_a_file_is_config_error(self, tmp_path, capsys,
                                                   command, where):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        text = SWEEP_CONFIG if command == "sweep" else SOLVE_CONFIG
        out = taken if where == "config" else tmp_path / "o"
        argv = [command, "--config", write_config(tmp_path, text, out=out)]
        if where == "flag":
            argv += ["--out-dir", str(taken)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert taken.read_text() == "not a directory\n"

    def test_rejected_sweep_makes_no_directory(self, tmp_path, capsys):
        # every cell's config is checked before the output directory
        # is made
        text = SWEEP_CONFIG.replace("tau_values = 0.4", "tau_values = -0.2")
        out = tmp_path / "newdir"
        rc = main(["sweep", "--config",
                   write_config(tmp_path, text, out=str(out)),
                   "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["P2", "p2", "P5", "p5"])
    def test_format_names_the_pgm_encoding(self, tmp_path, fmt):
        out = tmp_path / "out"
        text = SOLVE_CONFIG.replace("out_dir = {out}",
                                    f"out_dir = {{out}}\nformat = {fmt}")
        cfg = write_config(tmp_path, text, out=str(out))
        assert main(["solve-tv", "--config", cfg, "--max-iter", "2"]) == 2
        assert (out / "restored.pgm").read_bytes()[:2] == fmt.upper().encode()
        pixels, _ = read_pgm(out / "restored.pgm")
        assert pixels.shape == (32, 32)

    def test_unknown_format_is_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = SOLVE_CONFIG.replace("out_dir = {out}",
                                    "out_dir = {out}\nformat = P7")
        cfg = write_config(tmp_path, text, out=str(out))
        assert main(["solve-tv", "--config", cfg]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and "'P7'" in line
        assert not out.exists()


class TestPGMSize:
    """Step sizes follow the loaded image's grid, not the n1/n2 keys."""

    TEXT = """
[image]
source = {src}
{size_keys}
[solver]
tau = 0.4
{steps}
alpha = 0.01
lambda = 1.9
eps = 1e-4
max_iter = 3
"""

    def _setup(self, tmp_path, n, steps, size_keys=""):
        import argparse

        from pdsplit import synthetic_image
        from pdsplit.cli import _load_config, _tv_setup
        from pdsplit.pgm import write_pgm

        src = tmp_path / f"img{n}.pgm"
        write_pgm(src, synthetic_image(n, n, peak=255.0).pixels)
        cfg = write_config(tmp_path, self.TEXT, name=f"pgm{n}.ini",
                           src=src, steps=steps, size_keys=size_keys)
        none = argparse.Namespace(relaxation=None, eps=None, max_iter=None,
                                  seed=None)
        return cfg, lambda: _tv_setup(_load_config(cfg), none)

    def test_gamma_steps_sit_on_the_boundary_of_a_128_image(self, tmp_path):
        from pdsplit import gradient_norm_sq

        cfg, setup = self._setup(tmp_path, 128, "gamma1 = 0.6\ngamma2 = 0.01")
        c, observed, _, _ = setup()
        assert observed.shape == (128, 128)
        d = gradient_norm_sq(128)
        bound = c.tau * (c.sigma1 * d + c.sigma2 * d + c.sigma3)
        assert bound == pytest.approx(1.0, rel=1e-12)
        rc = main(["solve-tv", "--config", cfg, "--out-dir",
                   str(tmp_path / "o")])
        assert rc == 2  # three iterations: a run, not a config error

    def test_equal_sigma_of_a_32_image(self, tmp_path):
        from pdsplit import equal_critical_sigma, gradient_norm_sq

        _, setup = self._setup(tmp_path, 32, "")
        c, _, R, _ = setup()
        d = gradient_norm_sq(32)
        assert c.sigma1 == c.sigma2 == c.sigma3 \
            == equal_critical_sigma(0.4, d, d)
        assert R.dom_dim == 32 * 32

    def test_contradicting_size_key_is_config_error(self, tmp_path, capsys):
        cfg, _ = self._setup(tmp_path, 32, "",
                             size_keys="n1 = 64")
        rc = main(["solve-tv", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")


class TestSweepCommand:
    def test_sweep_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SWEEP_CONFIG, out=str(out))
        rc = main(["sweep", "--config", cfg])
        assert rc == 0
        with open(out / "sweep.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == [
            "tau", "sigma1", "sigma2", "sigma3", "lambda", "seed",
            "iterations", "converged", "final_residual", "objective",
            "psnr", "wall_ms", "error",
        ]
        assert len(rows) == 3  # header + gamma cell + equal-sigma cell
        assert all(r[7] == "true" for r in rows[1:])
        assert all(r[12] == "" for r in rows[1:])

    def test_lambda_and_seed_options_replace_the_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SWEEP_CONFIG, out=str(out))
        main(["sweep", "--config", cfg, "--lambda", "0.5", "--seed", "7",
              "--max-iter", "3"])
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(r["lambda"] == "0.5" and r["seed"] == "7" for r in rows)
        assert all(r["iterations"] == "3" for r in rows)

    def test_solver_tau_and_lambda_are_accepted(self, tmp_path):
        # solve-tv configs reused for a sweep carry [solver] tau and
        # lambda; the grid comes from [sweep], so the rows do not use them
        out = tmp_path / "out"
        text = SWEEP_CONFIG.replace(
            "alpha = 0.01", "tau = 5.0\nlambda = 0.3\nalpha = 0.01"
        ).replace("out_dir = {out}", "out_dir = {out}\nformat = p2")
        cfg = write_config(tmp_path, text, out=str(out))
        assert main(["sweep", "--config", cfg, "--max-iter", "3"]) == 2
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(r["tau"] == "0.4" and r["lambda"] == "1.9" for r in rows)


class TestReadersAgree:
    def test_one_cell_sweep_matches_solve(self, tmp_path, capsys):
        # the [sweep] cell is the [solver] gamma, lambda and seed
        text = SOLVE_CONFIG.replace("n1 = 32\nn2 = 32", "n1 = 16\nn2 = 16")
        text += """
[sweep]
tau_values = 0.4
gamma1_values = 0.6
gamma2_values = 0.01
lambda_values = 1.9
seeds = 3
include_equal_sigma = false
"""
        solve_out, sweep_out = tmp_path / "solve", tmp_path / "sweep"
        cfg = write_config(tmp_path, text, out=str(solve_out))
        assert main(["solve-tv", "--config", cfg]) == 0
        summary = capsys.readouterr().out
        assert main(["sweep", "--config", cfg,
                     "--out-dir", str(sweep_out)]) == 0
        with open(solve_out / "trace.csv") as f:
            trace = list(csv.DictReader(f))
        with open(sweep_out / "sweep.csv") as f:
            (row,) = list(csv.DictReader(f))
        assert row["iterations"] == str(len(trace))
        assert row["final_residual"] == trace[-1]["residual"]
        assert row["seed"] == "3" and row["lambda"] == "1.9"
        assert f"iterations={len(trace)} " in summary
        assert f"objective={float(row['objective']):.6f} " in summary
        assert f"psnr={float(row['psnr']):.4f} " in summary


class TestDRSCheckCommand:
    def test_default_run(self, capsys):
        rc = main(["drs-check", "--dims", "8", "--iters", "50",
                   "--instances", "3"])
        captured = capsys.readouterr().out
        assert "max deviation" in captured
        assert rc == 0

    def test_alternating_schedule_covered_by_random_suite(self, capsys):
        rc = main(["drs-check", "--dims", "4", "--iters", "80",
                   "--instances", "5", "--seed", "9"])
        assert rc == 0

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "equivalence_deviation",
                            lambda *args: math.nan)
        rc = main(["drs-check", "--dims", "4", "--iters", "5",
                   "--instances", "2"])
        assert "max deviation" in capsys.readouterr().out
        assert rc == 2


class TestDiagnoseCommand:
    def test_identity_instance_not_critical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, IDENTITY_CONFIG)
        rc = main(["diagnose", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "step_condition_estimate=0.500000" in out
        assert "critical=false" in out
        assert "rank=" in out

    def test_tv_config_critical_with_dense_skip(self, tmp_path, capsys):
        text = """
[image]
n1 = 64
n2 = 64
peak = 1.0

[solver]
tau = 0.4
gamma1 = 0.6
gamma2 = 0.01
"""
        cfg = write_config(tmp_path, text)
        rc = main(["diagnose", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "critical=true" in out
        assert "skipped (dense limit)" in out

    def test_small_tv_config_reports_rank(self, tmp_path, capsys):
        text = """
[image]
n1 = 8
n2 = 8
peak = 1.0

[blur]
size = 5

[solver]
tau = 0.4
gamma1 = 0.6
gamma2 = 0.01
"""
        cfg = write_config(tmp_path, text)
        rc = main(["diagnose", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rank=" in out and "kernel_dim=" in out

    def test_run_options_are_unknown_flags(self, tmp_path, capsys):
        # diagnose reads only --config and --seed; the solver's run
        # options are rejected like any unknown flag
        cfg = write_config(tmp_path, "[solver]\nproblem = identity\n")
        for flag, value in (("--eps", "3"), ("--lambda", "1.5"),
                            ("--max-iter", "7"), ("--out-dir", "zzz")):
            with pytest.raises(SystemExit) as exc:
                main(["diagnose", "--config", cfg, flag, value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {flag} {value}" in err


# one key of an 8 x 8 TV config with a 3 x 3 blur and 50 iterations
# takes an adversarial value
ADVERSARIAL_VALUES = ("NaN", "inf", "-inf", "0", "-0", "1e308", "-1e308",
                      "1e-320", "12345678901234567890", "", "abc", "é")
SMALL_TV = {
    "image": {"n1": "8", "n2": "8", "peak": "1.0"},
    "blur": {"size": "3"},
    "solver": {"tau": "0.4", "gamma1": "0.6", "gamma2": "0.01",
               "alpha": "0.01", "lambda": "1.9", "eps": "1e-4",
               "max_iter": "50"},
    "sweep": {"tau_values": "0.4", "gamma1_values": "0.6",
              "gamma2_values": "0.01", "lambda_values": "1.9",
              "seeds": "0", "include_equal_sigma": "false"},
}
TV_KEYS = [(section, key) for section, keys in _FORMATS["tv"].items()
           for key in keys]


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["solve-tv", "sweep", "diagnose"]),
       where=st.sampled_from(TV_KEYS),
       value=st.sampled_from(ADVERSARIAL_VALUES))
@example(command="solve-tv", where=("solver", "lambda"), value="1e-320")
@example(command="sweep", where=("sweep", "lambda_values"), value="1e-320")
@example(command="solve-tv", where=("output", "out_dir"), value="")
@example(command="sweep", where=("output", "out_dir"), value="")
@example(command="diagnose", where=("solver", "sigma1"), value="1e-320")
@example(command="diagnose", where=("solver", "gamma2"), value="1e-320")
def test_adversarial_value_gives_an_exit_code_not_a_traceback(
        tmp_path, capsys, monkeypatch, command, where, value):
    section, key = where
    sections = {name: dict(keys) for name, keys in SMALL_TV.items()}
    if key.startswith("sigma"):
        # explicit sigmas replace the gammas
        del sections["solver"]["gamma1"], sections["solver"]["gamma2"]
        sections["solver"].update(sigma1="0.1", sigma2="0.1", sigma3="0.1")
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    sections["output"] = {"out_dir": str(run_dir / "out")}
    sections.setdefault(section, {})[key] = value
    cfg = run_dir / "run.ini"
    cfg.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()), encoding="utf-8")
    cwd = run_dir / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)

    rc = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc in (0, 1, 2)
    if rc == 1:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
    else:
        assert captured.err == ""
    # only a relative out_dir makes anything here, and only a directory
    made = list(cwd.iterdir())
    assert all(p.is_dir() for p in made)
    assert not made or key == "out_dir"
    if rc == 1 or command == "diagnose":
        return
    out = cwd / value if key == "out_dir" else run_dir / "out"
    eps = float(sections["solver"]["eps"])
    if command == "solve-tv":
        with open(out / "trace.csv") as f:
            rows = list(csv.reader(f))
        if "converged=True" in captured.out:
            assert float(rows[-1][1]) < eps
    else:
        with open(out / "sweep.csv") as f:
            for row in csv.DictReader(f):
                if row["converged"] == "true":
                    assert float(row["final_residual"]) < eps
