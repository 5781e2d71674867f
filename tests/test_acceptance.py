"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Criteria marked with an expected wall-clock budget assert
it; budgets are generous on any desk-class machine.

Shared Monte Carlo ensembles (the reference stochastic configuration
m = delta_1, eta = u/2 * (1 ^ |z|), lambda* = 1/2) are built once per module
run and reused across the gap-scaling, constant-stability, and increment-
scaling criteria.
"""

import filecmp
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from plaplace_levy import (
    CostSpec,
    Field,
    Grid,
    LevyModel,
    NonConvergence,
    SchemeConfig,
    aldous_scalings,
    apriori_check,
    constant_target,
    eta_linear,
    eta_zero,
    generate_ensemble,
    initial_smoothings,
    isometry_check,
    l2_norm,
    prepare_initial,
    psi_zero,
    saa_minimize,
    sample_prms,
    simulate_paths,
    sine_basis,
    uniqueness_check,
    zero_flux,
)
from plaplace_levy.cli import main as cli_main

from _oracles import (control_field, field_cost, oracle_minimize, smoothed_start, state_fields,
                      step_solve)


def report(number, name, t0, budget, detail=""):
    elapsed = time.time() - t0
    print(f"[criterion {number:02d}] PASS ({elapsed:.1f}s / budget {budget:.0f}s): {name} {detail}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# reference stochastic configuration ----------------------------------------

GRID = Grid(1, 16)
P = 3.0
T = 0.5
U0 = Field.from_function(GRID, lambda x: 0.5 * np.sin(np.pi * x))
UCTL = Field.from_function(GRID, lambda x: 0.25 * np.sin(2 * np.pi * x), "free_boundary")


def reference_model():
    return LevyModel(
        eta=eta_linear(0.5), lambda_star=0.5, point_masses=((1.0, 1.0),)
    ).validate()


def reference_config(dt):
    return SchemeConfig(p=P, dt=dt, n_steps=int(round(T / dt)), flux=zero_flux(1))


@pytest.fixture(scope="module")
def reference_ensembles():
    """200 paths at each of three dt halvings, common seeds."""
    model = reference_model()
    out = {}
    for dt in (1 / 16, 1 / 32, 1 / 64):
        cfg = reference_config(dt)
        out[dt] = generate_ensemble(U0, UCTL, model, cfg, 200, base_seed=100)
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_zero_fixed_point():
    t0 = time.time()
    grid = Grid(1, 16)
    model = reference_model()
    cfg = SchemeConfig(p=3, dt=1 / 16, n_steps=16, flux=zero_flux(1))
    ens = generate_ensemble(
        Field.zeros(grid), Field.zeros(grid, "free_boundary"), model, cfg, 1, 7
    )
    for f in state_fields(ens):
        assert np.all(f.values == 0.0), "zero data must stay exactly zero"
    report(1, "zero fixed point", t0, 1.0)


def test_criterion_02_initial_approximation_inequality():
    t0 = time.time()
    grid = Grid(1, 64)
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        u0 = Field(grid, rng.normal(size=grid.node_shape), "free_boundary")
        for p in (3.0, 4.0):
            (rep,) = initial_smoothings([u0], dt=0.05, p=p)
            assert not isinstance(rep, NonConvergence), rep
            assert rep["lhs"] <= rep["rhs"] + rep["slack"], (
                f"energy estimate violated beyond solver slack: "
                f"lhs={rep['lhs']:.12e} rhs={rep['rhs']:.12e}"
            )
            checked += 1
    report(2, "initial-approximation inequality", t0, 30.0, f"({checked} solves)")


def test_criterion_03_per_step_oracle_equivalence():
    t0 = time.time()
    grid = Grid(1, 10)  # 9 interior nodes
    cfg = SchemeConfig(p=3, dt=0.05, n_steps=1, flux=zero_flux(1))
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        vals = np.zeros(grid.n_nodes)
        vals[grid.interior_nodes] = rng.normal(size=9)
        u_prev = Field(grid, vals)
        ours = step_solve(u_prev, Field.zeros(grid), cfg)
        v_star = oracle_minimize(u_prev.flat, grid.h, cfg.dt, cfg.p, gtol=1e-11)
        err = np.sqrt(np.sum((ours.flat - v_star) ** 2) * grid.h)
        worst = max(worst, err)
    assert worst <= 1e-6, f"worst L2 gap to the convex-energy oracle: {worst:.2e}"
    report(3, "per-step oracle equivalence", t0, 60.0, f"(worst gap {worst:.1e})")


def test_criterion_04_deterministic_self_convergence():
    t0 = time.time()
    grid = Grid(1, 32)
    u0 = Field.from_function(grid, lambda x: np.sin(np.pi * x))
    U = Field.zeros(grid, "free_boundary")
    model = LevyModel(eta=eta_zero(), lambda_star=0.5, point_masses=())
    dts = [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
    # every run starts from one smoothing at the coarsest dt, so the sweep
    # measures the order of the time march
    start = prepare_initial(u0, U.clamp_boundary(), dts[0], 3)

    def run(dt):
        cfg = SchemeConfig(p=3, dt=dt, n_steps=int(round(0.5 / dt)), flux=zero_flux(1))
        paths = sample_prms(model, dt, cfg.n_steps, [0])
        return state_fields(simulate_paths(start, model, cfg, paths))[-1]

    ref = run(dts[-1] / 32)
    errs = [l2_norm(run(dt) - ref) for dt in dts]
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert abs(slope - 1.0) <= 0.2, f"self-convergence slope {slope:.3f} not 1.0 +/- 0.2"
    report(4, "deterministic self-convergence", t0, 120.0, f"(slope {slope:.3f})")


def test_criterion_05_interpolant_gap_scaling(reference_ensembles):
    t0 = time.time()
    dts = sorted(reference_ensembles)
    gaps = [
        float(np.mean((dt / 3.0) * reference_ensembles[dt].increments_sq_sums))
        for dt in dts
    ]
    slope = float(np.polyfit(np.log(dts), np.log(gaps), 1)[0])
    assert slope >= 0.8, f"interpolant-gap slope {slope:.3f} below 0.8"
    report(5, "interpolant-gap scaling", t0, 300.0, f"(slope {slope:.3f})")


def test_criterion_06_apriori_constant_stability(reference_ensembles):
    t0 = time.time()
    cs = []
    for dt, ens in sorted(reference_ensembles.items()):
        rep = apriori_check(ens, U0, UCTL)
        assert not rep.violation
        cs.append(rep.statistics["fitted_C"])
    ratio = max(cs) / min(cs)
    assert ratio < 2.0, f"fitted constant varies by {ratio:.2f}x across dt halvings"
    report(6, "moment-bound constant stability", t0, 300.0,
           f"(C = {[f'{c:.3f}' for c in cs]}, ratio {ratio:.2f})")


def test_criterion_07_isometry():
    t0 = time.time()
    u = Field.from_function(GRID, lambda x: np.sin(np.pi * x))
    rep = isometry_check(reference_model(), u, dt=0.01, n_samples=100_000, base_seed=0)
    assert rep.rel_error <= 0.05, f"isometry relative error {rep.rel_error:.4f} > 5%"
    report(7, "compensated-increment isometry", t0, 60.0,
           f"(rel err {rep.rel_error:.4f})")


def test_criterion_08_increment_scalings(reference_ensembles):
    t0 = time.time()
    dt = 1 / 64
    ens = reference_ensembles[dt]
    tau = T / 4.0
    thetas = [dt * 2**j for j in range(5)]
    t2 = aldous_scalings(ens, ("T2",), thetas, tau=tau)[0]
    assert not t2.trivial
    assert 0.75 <= t2.fitted_slope <= 1.5, f"T2 slope {t2.fitted_slope:.3f} outside [0.75, 1.5]"
    t1 = aldous_scalings(ens, ("T1",), thetas, tau=tau)[0]
    assert t1.fitted_slope >= 0.5, f"T1 slope {t1.fitted_slope:.3f} below 0.5"
    report(8, "increment scalings", t0, 300.0,
           f"(T1 {t1.fitted_slope:.2f}, T2 {t2.fitted_slope:.2f})")


def test_criterion_09_pathwise_uniqueness_and_l1_stability():
    t0 = time.time()
    model = reference_model()
    cfg = reference_config(1 / 32)
    # one 500-path ensemble is side a of both pairings
    base = generate_ensemble(U0, UCTL, model, cfg, 500, base_seed=0)
    same = uniqueness_check(base, simulate_paths(smoothed_start(U0.copy(), UCTL, cfg), model, cfg,
                                                 base.paths[:50]))
    assert same.passed, f"identical-input L1 distance {same.max_l1:.2e} > {same.threshold:.2e}"
    bump = Field.from_function(GRID, lambda x: 0.3 * np.sin(3 * np.pi * x))
    diff = uniqueness_check(base, simulate_paths(smoothed_start(U0 + bump, UCTL, cfg), model, cfg,
                                                 base.paths))
    assert diff.passed, "mean L1 distance increased beyond 3 standard errors"
    report(9, "pathwise uniqueness / L1 stability", t0, 300.0,
           f"(max identical {same.max_l1:.1e}, D(0)->D(T) "
           f"{diff.mean_l1[0]:.4f}->{diff.mean_l1[-1]:.4f})")


def test_criterion_10_control_sanity():
    t0 = time.time()
    grid = Grid(1, 12)
    cfg = SchemeConfig(p=3, dt=1 / 16, n_steps=8, flux=zero_flux(1))
    det_model = LevyModel(eta=eta_zero(), lambda_star=0.5, point_masses=((1.0, 1.0),))
    basis = sine_basis(grid, 2)

    # inverse-crime recovery in the deterministic case
    u0 = Field.from_function(grid, lambda x: 0.3 * np.sin(np.pi * x))
    c_star = np.array([0.4, -0.3])
    U_star = control_field(basis, c_star)
    planted = generate_ensemble(u0, U_star, det_model, cfg, 1, 0)
    spec = CostSpec(u_tar=state_fields(planted), psi=psi_zero())
    j_star = field_cost(planted, U_star, spec, cfg.p)[0]
    res = saa_minimize(det_model, cfg, u0, spec, basis, n_paths=1, budget=250, base_seed=0)
    assert res.best_J <= j_star + 1e-6, (
        f"recovered J {res.best_J:.8f} exceeds planted J {j_star:.8f} + 1e-6"
    )
    assert all(b <= a for a, b in zip(res.J_history, res.J_history[1:]))

    # zero-target optimum at the zero control
    spec0 = CostSpec(u_tar=constant_target(grid, cfg.n_steps), psi=psi_zero())
    res0 = saa_minimize(det_model, cfg, Field.zeros(grid), spec0, basis,
                        n_paths=1, budget=60, base_seed=0)
    assert abs(res0.best_J) <= 1e-8
    assert np.allclose(res0.best_coeffs, 0.0, atol=1e-4)
    assert all(b <= a for a, b in zip(res0.J_history, res0.J_history[1:]))
    report(10, "control sanity", t0, 300.0,
           f"(J* {j_star:.4f}, recovered {res.best_J:.4f}, zero-target {res0.best_J:.1e})")


CLI_CONFIG = """
[grid]
dim = 1
n_cells = 12

[scheme]
p = 3.0
dt = 0.0625
n_steps = 8

[levy]
measure = point:1.0@1.0
eta = linear:0.5
lambda_star = 0.5

[initial]
u0 = sine:amplitude=0.5,mode=1
basis = sine:2
control_coeffs = 0.2,0.0

[run]
n_paths = 6
seed = 3
out_dir = out
"""

CLI_CONVERGE = """
[converge]
sweep = dt
values = 0.125,0.0625,0.03125
probe = self
"""


def _tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.time()
    sim_cfg = tmp_path / "sim.ini"
    sim_cfg.write_text(CLI_CONFIG)
    det_cfg = tmp_path / "det.ini"
    det_cfg.write_text(
        CLI_CONFIG.replace("eta = linear:0.5", "eta = zero")
        .replace("control_coeffs = 0.2,0.0", "control_coeffs = 0.0,0.0")
        + CLI_CONVERGE
    )
    runs = {
        "simulate": ["simulate", "--config", str(sim_cfg)],
        "verify": ["verify", "--config", str(sim_cfg), "--paths", "6"],
        "optimize": ["optimize", "--config", str(sim_cfg), "--paths", "2"],
        "converge": ["converge", "--config", str(det_cfg)],
    }
    for name, args in runs.items():
        out_a = str(tmp_path / f"{name}_a")
        out_b = str(tmp_path / f"{name}_b")
        code_a = cli_main(args + ["--out", out_a])
        code_b = cli_main(args + ["--out", out_b])
        assert code_a == code_b == 0, f"{name} exited {code_a}/{code_b}"
        ta, tb = _tree_bytes(out_a), _tree_bytes(out_b)
        assert ta.keys() == tb.keys()
        for rel in ta:
            assert ta[rel] == tb[rel], f"{name}: {rel} differs between identical runs"
    report(11, "bitwise reproducibility of all commands", t0, 300.0)
