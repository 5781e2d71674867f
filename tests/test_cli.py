"""Config parsing/validation and CLI subcommand tests."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from plaplace_levy.cli import main
from plaplace_levy.config import ConfigError, parse_config, serialize_config

from _oracles import parse_config_text

REFERENCE = """
[grid]
dim = 1
n_cells = 16

[scheme]
p = 3.0
dt = 0.03125
n_steps = 16

[levy]
measure = point:1.0@1.0
eta = linear:0.5
lambda_star = 0.5

[initial]
u0 = sine:amplitude=0.5,mode=1
basis = sine:2
control_coeffs = 0.25,0.0

[run]
n_paths = 5
seed = 0
out_dir = out
"""

ZERO = """
[grid]
dim = 1
n_cells = 8

[scheme]
p = 3.0
dt = 0.125
n_steps = 8

[initial]
u0 = zero

[run]
n_paths = 2
seed = 0
out_dir = out
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_roundtrip_idempotent(tmp_path):
    path = write(tmp_path, REFERENCE)
    cfg = parse_config(path)
    text1 = serialize_config(cfg)
    text2 = serialize_config(parse_config_text(text1))
    assert text1 == text2


def test_config_defaults_filled():
    cfg = parse_config_text(ZERO)
    assert cfg.get("scheme", "newton_tol") == "1e-10"
    assert cfg.get("levy", "measure") == "point:1.0@1.0"
    cfg.validate()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config_text("[grid]\ndim = 1\nbogus = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("[nonsense]\nx = 1\n")


def test_config_names_violated_assumptions():
    bad_lambda = REFERENCE.replace("lambda_star = 0.5", "lambda_star = 1.5")
    with pytest.raises(ConfigError, match="A3"):
        parse_config_text(bad_lambda).validate()
    bad_eta = REFERENCE.replace("eta = linear:0.5", "eta = linear:0.9")
    with pytest.raises(ConfigError, match="A3"):
        parse_config_text(bad_eta).validate()
    bad_mass = REFERENCE.replace("measure = point:1.0@1.0", "measure = point:1.0@-2.0")
    with pytest.raises(ConfigError, match="A4"):
        parse_config_text(bad_mass).validate()
    bad_p = REFERENCE.replace("p = 3.0", "p = 1.5")
    with pytest.raises(ConfigError, match="p > 2"):
        parse_config_text(bad_p).validate()


def test_config_flux_coefs_checked():
    text = REFERENCE.replace("n_steps = 16", "n_steps = 16\nflux = linear")
    with pytest.raises(ConfigError, match="flux_coefs"):
        parse_config_text(text).validate()


@pytest.mark.parametrize(
    "converge, named",
    [
        ("sweep = time", "[converge] sweep"),
        ("probe = fast", "[converge] probe"),
        ("sweep = eps\nvalues = 1e-3,2e-2", "[converge] values: eps = 0.02"),
        # at 1,000 paths both eps values keep the run within bounds; the
        # reference eps 1e-3 / 1000 (5.2e8 values) does not
        ("sweep = eps\nvalues = 1.5e-3,1e-3\nref_refine = 1000", "A4 violated: [converge] values"),
    ],
    ids=["sweep", "probe", "eps_above_z_max", "reference_eps_rate"],
)
def test_config_validate_checks_converge_section(converge, named):
    # loading checks [converge] whatever the command, so simulate rejects it too
    text = REFERENCE.replace(
        "measure = point:1.0@1.0", "measure = density:invsq\neps = 1e-3\nz_max = 2e-3"
    ).replace("n_paths = 5", "n_paths = 1000") + f"\n[converge]\n{converge}\n"
    parse_config_text(text.replace(f"\n[converge]\n{converge}\n", "")).validate()
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config_text(text).validate()


@pytest.mark.parametrize(
    "old, new, named",
    [
        (("dim = 1", "n_cells = 16"), ("dim = 2", "n_cells = 100000"), "[grid] n_cells"),
        ("n_steps = 16", "n_steps = 100000000", "[scheme] n_steps"),
        ("n_paths = 5", "n_paths = 100000000", "[run] n_paths"),
        # 1e5 expected jumps a step, within the former per-step cap of 1e6
        ("measure = point:1.0@1.0", "measure = point:1.0@3.2e6", "A4 violated: [levy] measure"),
        # the self probe's reference run takes 16 * 1e8 steps
        ("out_dir = out", "out_dir = out\n[converge]\nvalues = 0.0625,0.03125\nprobe = self\n"
         "ref_refine = 100000000", "[converge] ref_refine"),
    ],
    ids=["grid", "n_steps", "n_paths", "jump_rate", "ref_refine"],
)
def test_config_rejects_runs_too_large_to_hold(old, new, named):
    # rejected by validate() before any array is built, so this needs no memory
    text = REFERENCE
    for o, n in zip(*((old, new) if isinstance(old, tuple) else ((old,), (new,)))):
        assert o in text
        text = text.replace(o, n)
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config_text(text).validate()


def test_run_bound_counts_what_each_command_holds(tmp_path, capsys):
    # 1e5 expected jumps a step: the 5 x 16 path steps fit the bound, the
    # 10,000 isometry draws of verify do not
    text = REFERENCE.replace("measure = point:1.0@1.0", "measure = point:1.0@3.2e6")
    for command in ("simulate", "optimize", "converge"):
        parse_config_text(text).validate(command)
    out = str(tmp_path / "o")
    assert run_cli(["verify", "--config", write(tmp_path, text), "--out", out]) == 2
    assert "A4 violated: [levy] measure" in capsys.readouterr().err
    assert not os.path.exists(out)
    # 2e5 paths of 17 x 17 values: two copies fit; verify's stack of
    # 2 n_paths + 20 rows and the sums of its n_paths moment-ensemble rows
    # do not, nor do optimize's copies
    from plaplace_levy.config import MAX_RUN_VALUES

    n_paths, per_path = 200_000, 17 * 17
    assert 2 * n_paths * per_path <= MAX_RUN_VALUES < (3 * n_paths + 20) * per_path
    text = REFERENCE.replace("n_paths = 5", f"n_paths = {n_paths}")
    for command in ("simulate", "converge"):
        parse_config_text(text).validate(command)
    for command in ("verify", "optimize"):
        with pytest.raises(ConfigError, match=re.escape("[scheme] n_steps")):
            parse_config_text(text).validate(command)
    out = str(tmp_path / "v")
    cfg = write(tmp_path, REFERENCE)
    assert run_cli(["verify", "--config", cfg, "--paths", str(n_paths), "--out", out]) == 2
    assert "[scheme] n_steps" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_run_bound_counts_every_candidate_of_an_optimize_batch(tmp_path, capsys):
    # 5e4 paths of 17 x 17 values: 8 copies fit the bound, but the search
    # counts three copies (states and a predicted start) for each candidate
    # of its 3-point initial simplex (sine:2 basis), the 3 kept trajectories
    # of its start predictor, up to 3 more the frozen predictor still holds,
    # and the incumbent's, 16 copies
    from plaplace_levy.config import MAX_RUN_VALUES

    n_paths, per_path = 50_000, 17 * 17
    assert 8 * n_paths * per_path <= MAX_RUN_VALUES < 16 * n_paths * per_path
    text = REFERENCE.replace("n_paths = 5", f"n_paths = {n_paths}")
    for command in ("simulate", "verify", "converge"):
        parse_config_text(text).validate(command)
    # checked in process first, so a regression fails here instead of running
    with pytest.raises(ConfigError, match=re.escape("[scheme] n_steps")):
        parse_config_text(text).validate("optimize")
    cfg = write(tmp_path, REFERENCE)
    out = str(tmp_path / "o")
    assert run_cli(["optimize", "--config", cfg, "--paths", str(n_paths), "--out", out]) == 2
    assert "[scheme] n_steps" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_shipped_configs_fit_the_run_bound():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in ("sample_config.ini", "perfbench/configs/sample.ini",
                 "perfbench/configs/simulate-2d.ini"):
        parse_config(os.path.join(root, path)).validate()


def test_fine_2d_simulate_config_fits_the_run_bound(tmp_path):
    # 127^2 interior nodes: the bound counts states, times and marks, not a
    # per-jump evaluation of eta at every node
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "configs", "simulate-2d.ini")) as fh:
        text = fh.read()
    assert "n_cells = 32\n" in text
    path = tmp_path / "simulate-2d-128.ini"
    path.write_text(text.replace("n_cells = 32\n", "n_cells = 128\n"))
    parse_config(str(path)).validate()


def test_loading_a_config_does_not_import_numpy_random():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from plaplace_levy.config import parse_config; "
            "parse_config(sys.argv[2]).validate(); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code, os.path.join(root, "src"),
                          os.path.join(root, "sample_config.ini")],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


def test_nodal_csv_initial_data(tmp_path):
    rows = ["value"] + ["0.0"] + [f"{0.1 * i}" for i in range(1, 8)] + ["0.0"]
    csv_path = tmp_path / "u0.csv"
    csv_path.write_text("\r\n".join(rows) + "\r\n")
    text = ZERO.replace("u0 = zero", f"u0 = file:{csv_path}")
    cfg = parse_config_text(text)
    u0 = cfg.build_initial(cfg.build_grid())
    assert u0.values[3] == pytest.approx(0.3)
    short = ZERO.replace("u0 = zero", f"u0 = file:{tmp_path / 'missing.csv'}")
    with pytest.raises(ConfigError):
        parse_config_text(short).build_initial(cfg.build_grid())


def run_cli(args):
    return main(args)


def test_cli_simulate_zero_preset_all_zero(tmp_path):
    cfg_path = write(tmp_path, ZERO)
    out = str(tmp_path / "out")
    assert run_cli(["simulate", "--config", cfg_path, "--out", out]) == 0
    csv_path = os.path.join(out, "paths", "path_00000.csv")
    with open(csv_path, newline="") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,l2_norm,grad_lp_p,jump_count"
    for line in lines[1:]:
        _, l2v, gp, _ = line.split(",")
        assert float(l2v) == 0.0 and float(gp) == 0.0
    summary = json.load(open(os.path.join(out, "simulate_summary.json")))
    assert summary["schema_version"] == 1
    assert summary["ensemble"]["statistics"]["sup_E_l2"] == 0.0


def test_cli_simulate_bitwise_reproducible(tmp_path):
    cfg_path = write(tmp_path, REFERENCE)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(["simulate", "--config", cfg_path, "--out", out1, "--paths", "3"]) == 0
    assert run_cli(["simulate", "--config", cfg_path, "--out", out2, "--paths", "3"]) == 0
    for rel in ("simulate_summary.json", "paths/path_00000.csv", "paths/path_00002.csv"):
        a = open(os.path.join(out1, rel), "rb").read()
        b = open(os.path.join(out2, rel), "rb").read()
        assert a == b, rel


def test_cli_simulate_summary_schema(tmp_path):
    cfg_path = write(tmp_path, REFERENCE)
    out = str(tmp_path / "out")
    assert run_cli(["simulate", "--config", cfg_path, "--out", out, "--paths", "100"]) == 0
    summary = json.load(open(os.path.join(out, "simulate_summary.json")))
    stats = summary["ensemble"]["statistics"]
    for key in (
        "sup_E_l2",
        "E_sup_l2",
        "E_grad_lp_time_integral",
        "E_interp_gap_sq",
        "fitted_C",
    ):
        assert key in stats
        assert key in summary["ensemble"]["standard_errors"]


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = REFERENCE.replace("lambda_star = 0.5", "lambda_star = 1.5")
    cfg_path = write(tmp_path, bad)
    assert run_cli(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "A3" in capsys.readouterr().err


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    text = REFERENCE.replace("dt = 0.03125", "dt = 10.0").replace(
        "n_steps = 16", "n_steps = 2\nnewton_max_iters = 1\nnewton_tol = 1e-15"
    )
    cfg_path = write(tmp_path, text)
    code = run_cli(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "solver failure at step 0 of path seed 0" in capsys.readouterr().err


def test_cli_verify_solver_failure_is_the_moment_ensembles(tmp_path, capsys):
    # verify solves its moment ensemble and both uniqueness runs as one
    # stack; with one Newton round a step, the moment ensemble fails first,
    # and verify reports the error simulate_paths raises on it alone
    from plaplace_levy import NonConvergence, generate_ensemble

    text = REFERENCE.replace("n_steps = 16", "n_steps = 16\nnewton_max_iters = 1")
    cfg_path = write(tmp_path, text)
    code = run_cli(["verify", "--config", cfg_path, "--paths", "50", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    cfg = parse_config(cfg_path)
    grid = cfg.build_grid()
    with pytest.raises(NonConvergence) as exc:
        generate_ensemble(cfg.build_initial(grid), cfg.build_control(grid), cfg.build_levy(),
                          cfg.build_scheme(grid.dim), 50, cfg.seed)
    alone = exc.value
    assert code == 3
    assert err == f"solver failure at step {alone.step} of path seed {alone.seed}: {alone}\n"


def test_cli_singular_step_matrix_exit_code(tmp_path, capsys, monkeypatch):
    # gttrf, the 1D band kernel, returns an exactly zero pivot in the first
    # path's block of the first step solve: a solver failure (exit 3) naming
    # step and seed, not a traceback
    import plaplace_levy._lapack as lapack

    real, injected = lapack.dgttrf, []

    def singular_once(dl, d, du, **kwargs):
        *factors, info = real(dl, d, du, **kwargs)
        if d.size == 2 * 15 and not injected:  # 2 paths of 15 unknowns
            injected.append(info)
            factors[1][2] = 0.0  # U's diagonal
            info = 3
        return (*factors, info)

    monkeypatch.setattr(lapack, "dgttrf", singular_once)
    code = run_cli(["simulate", "--config", write(tmp_path, REFERENCE), "--paths", "2",
                    "--out", str(tmp_path / "o")])
    assert injected == [0] and code == 3
    assert "solver failure at step 0 of path seed 0: step solver found no finite Newton step" \
        in capsys.readouterr().err


STALL = """
[grid]
dim = 2
n_cells = 16

[scheme]
p = 2.1
dt = 0.25
n_steps = 1
flux = sine
flux_coefs = 50,50

[levy]
measure = point:1.0@1.0
eta = sine:0.95
lambda_star = 0.96

[initial]
u0 = sine:amplitude=50,mode=1
"""


def test_cli_stalled_line_search_exit_code(tmp_path, capsys):
    # a strong sine flux at p = 2.1 stalls the first step's line search of
    # path seed 0, and its frozen-coefficient rescue fails too, with nothing
    # forced: a solver failure (exit 3) naming step and seed on one stderr
    # line, not a traceback
    code = run_cli(["simulate", "--config", write(tmp_path, STALL), "--paths", "2",
                    "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(r"solver failure at step 0 of path seed 0: step solver stagnated "
                        r"at residual \S+\n", err), err


SMOOTHING_FLOOR = """
[grid]
dim = 1
n_cells = 64

[scheme]
p = 3
dt = 1
n_steps = 2

[levy]
measure = point:1.0@1.0
eta = linear:0.5
lambda_star = 0.5

[initial]
u0 = sine:amplitude=50,mode=1
"""


def test_cli_initial_smoothing_failure_names_itself(tmp_path, capsys):
    # data of amplitude 50 on 64 cells put the smoothing's residual floor
    # above its fixed 1e-12 tolerance: a solver failure (exit 3) on one
    # stderr line that names the initial smoothing, not a step
    code = run_cli(["simulate", "--config", write(tmp_path, SMOOTHING_FLOOR), "--paths", "2",
                    "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(r"solver failure: initial smoothing: step solver \S.*\n", err), err


@pytest.mark.parametrize(
    "old, new, command, named",
    [
        ("eta = linear:0.5", "eta = linear:abc", "simulate", "[levy] eta"),
        ("u0 = sine:amplitude=0.5,mode=1", "u0 = constant:nan", "simulate", "A1"),
        ("basis = sine:2", "basis = sine:x", "simulate", "[initial] basis"),
        ("out_dir = out", "out_dir = out\n[cost]\npsi = l2_clip:abc", "optimize", "[cost] psi"),
        ("out_dir = out", "out_dir = out\n[cost]\npsi = l2_clip:abc", "simulate", "[cost] psi"),
        ("out_dir = out", "out_dir = out\n[cost]\npsi = l2_clip:abc", "verify", "[cost] psi"),
        ("out_dir = out", "out_dir = out\n[cost]\npsi = l2_clip:abc", "converge", "[cost] psi"),
        ("control_coeffs = 0.25,0.0", "control_coeffs = nan,0.0", "simulate",
         "[initial] control_coeffs"),
        ("out_dir = out", "out_dir = out\n[converge]\nprobe = self\nref_refine = 0",
         "converge", "[converge] ref_refine"),
        # T = 0.5: 0.3 and 0.07 give round(T / dt) = 2 and 7 steps, other horizons
        ("out_dir = out", "out_dir = out\n[converge]\nsweep = dt\nvalues = 0.3,0.07\nprobe = gap",
         "converge", "[converge] values"),
        # T / 1e-320 overflows to inf steps
        ("out_dir = out",
         "out_dir = out\n[converge]\nsweep = dt\nvalues = 1e-320,0.0625\nprobe = gap",
         "converge", "[converge] values"),
        ("dt = 0.03125", "dt = nan", "simulate", "[scheme] dt must be finite"),
        ("dt = 0.03125", "dt = inf", "simulate", "[scheme] dt must be finite"),
        ("p = 3.0", "p = inf", "simulate", "[scheme] p must be finite"),
        ("measure = point:1.0@1.0", "measure = point:1.0@1e300", "simulate",
         "A4 violated: [levy] measure"),
        ("control_coeffs = 0.25,0.0", "control_coeffs = 1e300,0", "simulate",
         "A1 violated: [initial] control_coeffs"),
        ("dt = 0.03125", "dt = 0", "simulate", "[scheme] dt must be positive"),
        ("dt = 0.03125", "dt = -0.03125", "simulate", "[scheme] dt must be positive"),
        ("p = 3.0", "p = 1.5", "simulate", "[scheme] p must satisfy p > 2"),
        ("control_coeffs = 0.25,0.0", "control_coeffs = inf,0", "simulate",
         "[initial] control_coeffs must be finite"),
        ("n_steps = 16", "n_steps = 16\nflux = linear\nflux_coefs = inf", "simulate",
         "[scheme] flux_coefs must be finite"),
        ("out_dir = out", "out_dir = out\n[converge]\nsweep = dt\nvalues = nan,0.0625",
         "converge", "[converge] values must be finite"),
        ("out_dir = out", "out_dir = out\n[converge]\nsweep = dt\nvalues = 0.0625,0.0625\n"
         "probe = gap", "converge", "[converge] values needs at least two distinct"),
        # mode 16 vanishes at every node of 16 cells
        ("basis = sine:2\ncontrol_coeffs = 0.25,0.0", "basis = sine:16\ncontrol_coeffs =",
         "optimize", "[initial] basis"),
        # 2D has six modes
        (("dim = 1", "basis = sine:2"), ("dim = 2", "basis = sine:9"), "optimize",
         "[initial] basis"),
        ("n_steps = 16", "n_steps = 16\nnewton_max_iters = 0", "simulate",
         "[scheme] newton_max_iters"),
        ("n_steps = 16", "n_steps = 16\nnewton_max_iters = -3", "simulate",
         "[scheme] newton_max_iters"),
    ],
    ids=["eta", "u0_nan", "basis", "psi", "psi_simulate", "psi_verify", "psi_converge",
         "control_coeffs_nan", "ref_refine", "dt_not_dividing_T", "dt_sweep_overflow", "dt_nan",
         "dt_inf", "p_inf", "jump_rate_too_large", "control_norm_infinite", "dt_zero",
         "dt_negative", "p_below_2", "control_coeffs_inf", "flux_coefs_inf",
         "converge_values_nan", "converge_values_repeated", "basis_mode_vanishes",
         "basis_2d_past_six_modes", "newton_max_iters_zero", "newton_max_iters_negative"],
)
def test_cli_parse_errors_exit_2_without_traceback(tmp_path, capsys, old, new, command, named):
    text = REFERENCE
    for o, n in zip(*((old, new) if isinstance(old, tuple) else ((old,), (new,)))):
        assert o in text
        text = text.replace(o, n)
    cfg_path = write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("below_a_file", [False, True])
def test_cli_unusable_out_dir_exits_2_without_traceback(tmp_path, capsys, below_a_file):
    # --out naming a regular file, or a path below one
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "o" if below_a_file else blocker
    cfg_path = write(tmp_path, REFERENCE)
    assert run_cli(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "output directory" in err and str(out) in err and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_cli_verify_zero_preset_passes(tmp_path):
    cfg_path = write(tmp_path, ZERO)
    out = str(tmp_path / "out")
    assert run_cli(["verify", "--config", cfg_path, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "verify_summary.json")))
    assert summary["all_passed"] is True
    for name in ("apriori", "aldous_t1", "aldous_t2", "isometry", "uniqueness"):
        assert os.path.exists(os.path.join(out, f"verify_{name}.json"))


def test_cli_verify_reference_config_passes(tmp_path):
    cfg_path = write(tmp_path, REFERENCE)
    out = str(tmp_path / "out")
    assert run_cli(["verify", "--config", cfg_path, "--out", out, "--paths", "20"]) == 0


def test_cli_optimize_zero_target(tmp_path):
    text = ZERO.replace("u0 = zero", "u0 = zero\nbasis = sine:2")
    cfg_path = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert run_cli(["optimize", "--config", cfg_path, "--out", out]) == 0
    res = json.load(open(os.path.join(out, "optimize_result.json")))
    assert abs(res["best_J"]) <= 1e-8
    hist = res["J_history"]
    assert all(b <= a for a, b in zip(hist, hist[1:]))


def test_cli_optimize_zero_steps_has_empty_tracking_sum(tmp_path, capsys):
    # T = 0: the tracking term is the empty sum and the cost is control plus
    # terminal payoff of the smoothed initial state
    text = REFERENCE.replace("n_steps = 16", "n_steps = 0") + "\n[cost]\npsi = l2\n"
    cfg_path = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert run_cli(["optimize", "--config", cfg_path, "--out", out, "--paths", "3"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    res = json.load(open(os.path.join(out, "optimize_result.json")))
    assert res["parts"]["tracking"] == 0.0 and res["parts"]["terminal"] > 0.0
    assert res["best_J"] == pytest.approx(sum(res["parts"].values()), rel=1e-15)


def test_cli_converge_self_and_validation(tmp_path):
    text = (
        REFERENCE.replace("eta = linear:0.5", "eta = zero")
        .replace("control_coeffs = 0.25,0.0", "control_coeffs = 0.0,0.0")
        + "\n[converge]\nsweep = dt\nvalues = 0.0625,0.03125,0.015625\nprobe = self\n"
    )
    cfg_path = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert run_cli(["converge", "--config", cfg_path, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "converge_report.json")))
    assert rep["passed"] is True
    assert abs(rep["fitted_slope"] - 1.0) <= 0.2

    single = text.replace("values = 0.0625,0.03125,0.015625", "values = 0.0625")
    cfg2 = write(tmp_path, single, name="single.ini")
    assert run_cli(["converge", "--config", cfg2, "--out", out]) == 2


def test_cli_converge_gap_probe(tmp_path):
    text = REFERENCE + "\n[converge]\nsweep = dt\nvalues = 0.0625,0.03125\nprobe = gap\n"
    cfg_path = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert run_cli(["converge", "--config", cfg_path, "--out", out, "--paths", "30"]) == 0
    rep = json.load(open(os.path.join(out, "converge_report.json")))
    assert rep["fitted_slope"] >= 0.8 and rep["passed"]


def test_cli_converge_failed_check_exits_1(tmp_path, monkeypatch):
    import plaplace_levy.estimates as estimates

    real = estimates.interp_gap_scaling
    monkeypatch.setattr(estimates, "interp_gap_scaling",
                        lambda *args: replace(real(*args), passed=False))
    text = REFERENCE + "\n[converge]\nsweep = dt\nvalues = 0.0625,0.03125\nprobe = gap\n"
    cfg_path, out = write(tmp_path, text), str(tmp_path / "out")
    assert run_cli(["converge", "--config", cfg_path, "--out", out, "--paths", "4"]) == 1
    assert json.load(open(os.path.join(out, "converge_report.json")))["passed"] is False


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = write(tmp_path, REFERENCE)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    run_cli(["simulate", "--config", cfg_path, "--out", out1, "--paths", "2", "--seed", "1"])
    run_cli(["simulate", "--config", cfg_path, "--out", out2, "--paths", "2", "--seed", "2"])
    a = open(os.path.join(out1, "paths", "path_00000.csv")).read()
    b = open(os.path.join(out2, "paths", "path_00000.csv")).read()
    assert a != b


TWO_D = """
[grid]
dim = 2
n_cells = 6

[scheme]
p = 3.0
dt = 0.0625
n_steps = 4

[initial]
u0 = sine:amplitude=0.5,mode=1

[run]
n_paths = 2
seed = 0
out_dir = out
"""


def test_cli_simulate_2d(tmp_path):
    cfg_path = write(tmp_path, TWO_D)
    out = str(tmp_path / "out")
    assert run_cli(["simulate", "--config", cfg_path, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "simulate_summary.json")))
    assert summary["ensemble"]["statistics"]["sup_E_l2"] > 0


# values that break an unguarded parse: not numbers in the usual sense,
# signs, zero and a float near the top of the range
_ODD = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, -1e300]

# the drawn float values by key (the first atom's mark and mass for the
# point measure, the u0 preset's value), and the range of each usual draw
_FLOAT_KEYS = {
    "dt": (1e-3, 0.25), "p": (2.5, 6.0), "lambda_star": (0.5, 0.99), "eta": (-0.5, 0.5),
    "atom_z": (-3.0, 3.0), "atom_mass": (0.0, 10.0), "u0": (-2.0, 2.0),
    "coeff_0": (-5.0, 5.0), "coeff_1": (-5.0, 5.0), "flux_coef": (-1.0, 1.0),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["simulate", "verify", "optimize", "converge"]),
    # listed so that the simplest draws, which hypothesis favours, are 4 cells
    # and 8 steps (verify needs 6); 2 cells make sine:2 linearly dependent
    n_cells=st.sampled_from([4, 5, 3, 2]),
    # 10**12 steps exceed the bound on what a run holds
    n_steps=st.sampled_from([8, 7, 6, 5, 4, 3, 2, 1, 0, 10**12]),
    dt=st.floats(*_FLOAT_KEYS["dt"]),
    p=st.floats(*_FLOAT_KEYS["p"]),
    lambda_star=st.floats(*_FLOAT_KEYS["lambda_star"]),
    eta=st.tuples(st.sampled_from(["linear", "sine"]), st.floats(*_FLOAT_KEYS["eta"])),
    measure=st.sampled_from(["point", "density:invsq", "density:uniform", "none"]),
    atoms=st.lists(st.tuples(st.floats(*_FLOAT_KEYS["atom_z"]),
                             st.floats(*_FLOAT_KEYS["atom_mass"])), min_size=1, max_size=3),
    u0=st.tuples(st.sampled_from(["zero", "sine", "constant"]), st.floats(*_FLOAT_KEYS["u0"])),
    coeffs=st.lists(st.floats(*_FLOAT_KEYS["coeff_0"]), min_size=2, max_size=2),
    flux=st.sampled_from(["zero", "linear", "sine"]),
    flux_coef=st.floats(*_FLOAT_KEYS["flux_coef"]),
    # at most one odd value per example, first its key, then the value, so
    # that most drawn configs are valid
    odd=st.one_of(st.none(), st.none(),
                  st.tuples(st.sampled_from(sorted(_FLOAT_KEYS)), st.sampled_from(_ODD))),
)
# a valid config with T = 0, which the derandomized draws do not reach for
# optimize: its tracking term is the empty sum
@example(command="optimize", n_cells=4, n_steps=0, dt=0.125, p=3.0, lambda_star=0.5,
         eta=("sine", 0.3), measure="density:invsq", atoms=[(1.0, 1.0)],
         u0=("constant", 0.7), coeffs=[0.2, -0.1], flux="sine", flux_coef=0.4, odd=None)
# ||U||^p underflows to 0 while ||U||^2 does not: the moment-bound constant
# is then not finite, and strict JSON writes it as null
@example(command="simulate", n_cells=3, n_steps=0, dt=0.125, p=3.0, lambda_star=0.5,
         eta=("linear", 0.0), measure="point", atoms=[(0.0, 0.0)], u0=("zero", 0.0),
         coeffs=[0.0, 5.723423712571871e-140], flux="zero", flux_coef=0.0, odd=None)
def test_cli_config_values_fuzz_end_in_documented_exit_codes(
        command, n_cells, n_steps, dt, p, lambda_star, eta, measure, atoms, u0, coeffs, flux,
        flux_coef, odd):
    value = dict(dt=dt, p=p, lambda_star=lambda_star, eta=eta[1], atom_z=atoms[0][0],
                 atom_mass=atoms[0][1], u0=u0[1], coeff_0=coeffs[0], coeff_1=coeffs[1],
                 flux_coef=flux_coef)
    if odd is not None:
        value[odd[0]] = odd[1]
    dt, p, lambda_star, flux_coef = (value[k] for k in ("dt", "p", "lambda_star", "flux_coef"))
    eta, u0 = (eta[0], value["eta"]), (u0[0], value["u0"])
    coeffs = [value["coeff_0"], value["coeff_1"]]
    atoms = [(value["atom_z"], value["atom_mass"]), *atoms[1:]]
    drawn = [dt, p, lambda_star, eta[1], *coeffs, flux_coef]
    if measure == "point":
        measure = "point:" + ",".join(f"{z!r}@{mass!r}" for z, mass in atoms)
        drawn += [x for atom in atoms for x in atom]
    u0_preset = {"zero": "zero", "sine": f"sine:amplitude={u0[1]!r},mode=1",
                 "constant": f"constant:{u0[1]!r}"}[u0[0]]
    if u0[0] != "zero":
        drawn.append(u0[1])
    # steps that divide T = n_steps dt; no step divides T = 0
    values = f"{dt!r},{dt / 2!r}" if n_steps else ""
    text = f"""
[grid]
dim = 1
n_cells = {n_cells}

[scheme]
p = {p!r}
dt = {dt!r}
n_steps = {n_steps}
flux = {flux}
flux_coefs = {flux_coef!r}

[levy]
measure = {measure}
eta = {eta[0]}:{eta[1]!r}
lambda_star = {lambda_star!r}

[initial]
u0 = {u0_preset}
basis = sine:2
control_coeffs = {coeffs[0]!r},{coeffs[1]!r}

[run]
n_paths = 2
seed = 0

[converge]
sweep = dt
values = {values}
probe = gap
"""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "run.ini")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli([command, "--config", cfg_path, "--out", out])
        assert code in (0, 1, 2, 3)
        if not all(map(math.isfinite, drawn)) or n_steps > 8:
            assert code == 2
        if code == 2:  # rejected before any arithmetic on the bad value
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        for name in os.listdir(out) if os.path.isdir(out) else []:
            if name.endswith(".json"):  # strict JSON: no NaN or Infinity tokens
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    json.load(fh, parse_constant=_reject_constant)


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")
