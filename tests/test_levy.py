"""Jump sampling, compensator quadrature, and compensated-increment tests."""

import numpy as np
import pytest

from plaplace_levy import (
    Field,
    Grid,
    InfiniteMassError,
    LevyModel,
    compensated_increments,
    eta_linear,
    eta_sine,
    eta_zero,
    isometry_rhs,
    sample_prms,
)
from plaplace_levy.levy import mark_sums, step_events


def steps_of(flat, path):
    """The per-step pieces of a path's flat marks."""
    return np.split(flat, np.cumsum(path.counts)[:-1])


def unit_delta_model(lam=1.0, coef=0.5, lam_star=0.5):
    return LevyModel(
        eta=eta_linear(coef), lambda_star=lam_star, point_masses=((1.0, lam),)
    )


def test_validate_accepts_reference_model():
    unit_delta_model().validate()


def test_validate_rejects_bad_lambda_star():
    with pytest.raises(ValueError, match="A3"):
        LevyModel(eta=eta_linear(0.5), lambda_star=1.5, point_masses=((1.0, 1.0),)).validate()


@pytest.mark.parametrize("eta", [eta_linear, eta_sine], ids=["linear", "sine"])
def test_validate_rejects_eta_exceeding_lipschitz(eta):
    bad = LevyModel(
        eta=eta(0.9), lambda_star=0.3, point_masses=((1.0, 1.0),)
    )
    with pytest.raises(ValueError, match="A3"):
        bad.validate()
    LevyModel(eta=eta(-0.3), lambda_star=0.3, point_masses=((1.0, 1.0),)).validate()


def test_c_eta_point_masses():
    m = LevyModel(
        eta=eta_linear(0.2),
        lambda_star=0.5,
        point_masses=((0.5, 2.0), (3.0, 0.25)),
    )
    # 2 * min(1, 0.25) + 0.25 * min(1, 9)
    assert m.c_eta == pytest.approx(2 * 0.25 + 0.25 * 1.0)


def test_c_eta_density_quadrature():
    # density 1 on [-1, -eps] u [eps, 1]
    m = LevyModel(
        eta=eta_linear(0.2),
        lambda_star=0.5,
        density="uniform",
        eps=1e-3,
        z_max=1.0,
    )
    exact = 2.0 * (1.0**3 - 1e-9) / 3.0  # integral of z^2 over both halves
    assert m.c_eta == pytest.approx(exact, rel=1e-4)
    assert m.total_mass == pytest.approx(2.0 * (1.0 - 1e-3), rel=1e-6)


def test_density_without_truncation_rejected():
    m = LevyModel(
        eta=eta_linear(0.2), lambda_star=0.5, density="invsq", eps=0.0
    )
    with pytest.raises(InfiniteMassError):
        m.total_mass


def test_validate_rejects_unknown_density():
    model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5, density="cauchy")
    with pytest.raises(ValueError, match="unknown density 'cauchy'"):
        model.validate()


def test_sample_prm_rate_one_mean_count():
    model = unit_delta_model(lam=1.0)
    counts, _ = step_events(model, 0.1, range(100_000), range(10))
    assert np.mean(counts.reshape(100_000, 10).sum(axis=1)) == pytest.approx(1.0, abs=0.02)


def test_sample_prm_zero_mass_empty():
    model = LevyModel(eta=eta_zero(), lambda_star=0.5, point_masses=())
    (path,) = sample_prms(model, 0.25, 4, [5])
    assert path.jump_count() == 0


def test_sample_prm_deterministic_in_seed():
    model = unit_delta_model(lam=4.0)
    a, b, c = sample_prms(model, 0.125, 8, [99, 99, 100])
    for x in ("counts", "marks"):
        assert np.array_equal(getattr(a, x), getattr(b, x))
    assert not np.array_equal(a.counts, c.counts)


def test_sample_prm_one_mark_per_jump_and_bad_steps_rejected():
    model = unit_delta_model(lam=30.0)
    (path,) = sample_prms(model, 0.25, 4, [1])
    assert path.counts.shape == (4,) and len(path.marks) == path.jump_count()
    with pytest.raises(ValueError):
        sample_prms(model, 0.25, -1, [1])
    with pytest.raises(ValueError):
        sample_prms(model, 0.0, 4, [1])


def test_sample_prms_zero_steps_give_empty_paths():
    model = unit_delta_model(lam=30.0)
    paths = sample_prms(model, 0.25, 0, [3, 4, 5])
    assert [p.seed for p in paths] == [3, 4, 5]
    for path in paths:
        assert path.counts.shape == path.marks.shape == (0,)
        assert path.jump_count() == 0
    assert sample_prms(model, 0.25, 0, []) == []


def test_c_eta_of_huge_marks_does_not_overflow():
    # 1 ^ z^2 is 1 for any |z| >= 1; squaring first would overflow at 1e300
    model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5,
                      point_masses=((1e300, 2.0), (-0.5, 4.0)))
    with np.errstate(all="raise"):
        assert model.c_eta == 2.0 + 0.25 * 4.0


def test_compensated_increment_zero_field():
    g = Grid(1, 8)
    model = unit_delta_model(lam=20.0)
    counts, marks = step_events(model, 0.25, range(4), [0])
    assert len(marks)
    inc = compensated_increments(model, np.zeros(len(g.interior_nodes)),
                                 mark_sums(counts, marks), 0.25)
    assert inc.shape == (4, len(g.interior_nodes)) and np.all(inc == 0.0)


def test_compensated_increment_martingale_mean_zero():
    g = Grid(1, 8)
    u = Field.from_function(g, lambda x: np.sin(np.pi * x))
    model = unit_delta_model(lam=2.0)
    dt = 0.05
    n = 40_000
    node = list(g.interior_nodes).index(g.n_cells // 2)
    counts, marks = step_events(model, dt, range(n), [0])  # step 0 of each seed's path
    acc = compensated_increments(model, u.flat[g.interior_nodes], mark_sums(counts, marks),
                                 dt)[:, node]
    se = acc.std() / np.sqrt(n)
    assert abs(acc.mean()) <= 3 * se


def test_compensated_increment_isometry_variance():
    g = Grid(1, 8)
    u = Field.from_function(g, lambda x: np.sin(np.pi * x))
    model = unit_delta_model(lam=1.0, coef=0.5)
    dt = 0.01
    n = 30_000
    counts, marks = step_events(model, dt, range(n), [0])  # step 0 of each seed's path
    inc = compensated_increments(model, u.flat[g.interior_nodes], mark_sums(counts, marks), dt)
    vals = np.sum(inc**2, axis=1) * g.cell_weight
    rhs = isometry_rhs(model, u, dt)
    from plaplace_levy.grid import l2_norm

    assert rhs == pytest.approx(dt * 1.0 * 0.25 * l2_norm(u) ** 2)
    assert np.mean(vals) == pytest.approx(rhs, rel=0.05)


# (eta, its value at (u, z) spelled out) for each preset
ETAS = {
    "linear": (eta_linear(0.5), lambda u, z: 0.5 * u * min(1.0, abs(z))),
    "sine": (eta_sine(0.4), lambda u, z: 0.4 * np.sin(u) * min(1.0, abs(z))),
    "zero": (eta_zero(), lambda u, z: 0.0 * u),
}


@pytest.mark.parametrize("kind", list(ETAS))
def test_eta_du_matches_central_differences(kind):
    model = LevyModel(eta=ETAS[kind][0], lambda_star=0.5, point_masses=((1.0, 1.0),))
    u = np.linspace(-3.0, 3.0, 40).reshape(5, 8)
    h = 1e-6
    fd = (model.eta_u(u + h) - model.eta_u(u - h)) / (2 * h)
    du = model.eta_du(u)
    assert du.shape == u.shape
    assert np.max(np.abs(du - fd)) <= 1e-9
    assert kind != "zero" or np.all(du == 0.0)


@pytest.mark.parametrize("measure", ["point", "invsq"])
@pytest.mark.parametrize("kind", list(ETAS))
def test_compensator_matches_per_atom_loop(measure, kind):
    eta, eta_at = ETAS[kind]
    if measure == "point":  # a mark beyond 1, where 1 ^ |z| clips
        model = LevyModel(eta=eta, lambda_star=0.5,
                          point_masses=((1.0, 1.5), (-0.3, 2.0), (-2.5, 0.5)))
    else:
        model = LevyModel(eta=eta, lambda_star=0.5, density="invsq", eps=0.01)
    g = Grid(2, 6)
    u = Field.from_function(g, lambda x, y: 3.0 * np.sin(np.pi * x) * np.cos(2 * y))
    u_int = u.flat[g.interior_nodes]
    comp, comp_sq = np.zeros_like(u_int), np.zeros_like(u_int)
    for z, lam in zip(*model.atoms):
        comp += lam * eta_at(u_int, float(z))
        comp_sq += lam * eta_at(u_int, float(z)) ** 2
    # with no marks, the compensated increment is -dt times the compensator
    dt = 0.05
    (inc,) = compensated_increments(model, u_int, np.zeros(1), dt)
    assert inc == pytest.approx(-dt * comp, rel=1e-13, abs=0.0)
    assert model.eta_sq_compensator(u_int) == pytest.approx(comp_sq, rel=1e-13, abs=0.0)
    rhs = 0.05 * np.sum(comp_sq) * g.cell_weight
    assert isometry_rhs(model, u, 0.05) == pytest.approx(rhs, rel=1e-13, abs=0.0)
    assert model.eta_is_zero == (kind == "zero")


@pytest.mark.parametrize("measure", ["point", "invsq"])
def test_step_draws_match_freshly_keyed_generators(measure):
    # each step of a sampled path must reproduce, draw for draw, a fresh
    # Philox keyed by (seed, salt) with counter (step, 0, 0, 0)
    if measure == "point":
        model = unit_delta_model(lam=9.0)
    else:
        model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5,
                          density="invsq", eps=0.05)
    z, lam = model.atoms
    total = lam.sum()
    dt = 0.25
    for seed in (0, 7, 2**40 + 3, 1_000_003 * 15 + 7919):
        (path,) = sample_prms(model, dt, 4, [seed])
        for k, marks in enumerate(steps_of(path.marks, path)):
            key = np.array([seed, 0x9E3779B97F4A7C15], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(
                counter=np.array([k, 0, 0, 0], dtype=np.uint64), key=key))
            count = int(rng.poisson(total * dt))
            rng.random(count)  # the jump times, which nothing reads
            if count == 0:
                ref_marks = np.array([])
            elif len(z) == 1:
                ref_marks = np.full(count, z[0])
            else:
                ref_marks = z[rng.choice(len(z), size=count, p=lam / total)]
            assert path.jump_count(k) == count and np.array_equal(marks, ref_marks)
            assert np.array_equal(step_events(model, dt, [seed], [k])[1], ref_marks)


@pytest.mark.parametrize("seeds", [range(3, 40), range(-6, 6, 4), range(2**64 - 3, 2**64 + 3),
                                   range(2**70, 2**70 + 9, 2**63 + 1), range(5, 5)])
def test_range_seeds_key_the_lanes_their_values_do(seeds):
    # a range of seeds is keyed by wrapping uint64 arithmetic, not seed by
    # seed: negative, 2^64-crossing and empty ranges key as their values
    model = unit_delta_model(lam=9.0)
    counts, marks = step_events(model, 0.25, seeds, [0, 2])
    want_counts, want_marks = step_events(model, 0.25, list(seeds), [0, 2])
    assert np.array_equal(counts, want_counts) and np.array_equal(marks, want_marks)


def test_compensated_increments_rows_match_single_increments():
    model = LevyModel(eta=eta_sine(0.4), lambda_star=0.5, point_masses=((1.0, 6.0), (-0.5, 3.0)))
    g = Grid(1, 10)
    rng = np.random.default_rng(5)
    fields = [Field(g, np.where(g.boundary_mask, 0.0, rng.normal(size=g.n_nodes))) for _ in range(5)]
    counts, marks = step_events(model, 0.25, range(5), [1])  # step 1 of each path
    assert counts.any()
    u_int = np.stack([f.flat[g.interior_nodes] for f in fields])
    sums = mark_sums(counts, marks)
    rows = compensated_increments(model, u_int, sums, 0.25)
    first = np.concatenate([[0], np.cumsum(counts)])
    eta_at = lambda u, z: 0.4 * np.sin(u) * min(1.0, abs(z))  # eta_sine(0.4), spelled out
    for i, row in enumerate(rows):
        single = sum(eta_at(u_int[i], z) for z in marks[first[i] : first[i + 1]])
        single = single - 0.25 * sum(lam * eta_at(u_int[i], z) for z, lam in zip(*model.atoms))
        assert row == pytest.approx(single, rel=1e-14, abs=1e-16)
    # one row at a state (m,)
    (one,) = compensated_increments(model, u_int[2], sums[2:3], 0.25)
    assert np.array_equal(one, rows[2])


_SALT = 0x9E3779B97F4A7C15


def test_philox_blocks_match_random_raw():
    from plaplace_levy.levy import _philox

    rng = np.random.default_rng(17)
    ctr = rng.integers(0, 2**63, (4, 6), dtype=np.uint64)
    key = rng.integers(0, 2**63, (2, 6), dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    # numpy's Philox increments the counter before each block
    got = _philox((ctr[0] + np.uint64(1), *ctr[1:]), tuple(key))
    for i in range(6):
        ref = np.random.Philox(counter=ctr[:, i], key=key[:, i]).random_raw(4)
        assert np.array_equal(got[i], ref)


def _fresh_events(model, dt, seed, k):
    """The marks of step k of seed's path from a freshly keyed Generator."""
    z, lam = model.atoms
    total = lam.sum()
    rng = np.random.Generator(np.random.Philox(
        counter=np.array([k, 0, 0, 0], dtype=np.uint64),
        key=np.array([seed & (2**64 - 1), _SALT], dtype=np.uint64)))
    count = int(rng.poisson(total * dt))
    rng.random(count)  # the jump times, which nothing reads
    if count == 0:
        return np.array([])
    if len(z) == 1:
        return np.full(count, z[0])
    return z[rng.choice(len(z), size=count, p=lam / total)]


_MEASURES = {
    "one_atom": LevyModel(eta=eta_linear(0.5), lambda_star=0.5, point_masses=((1.0, 0.3),)),
    "two_atoms": LevyModel(eta=eta_linear(0.5), lambda_star=0.5,
                           point_masses=((1.0, 0.2), (-0.5, 0.1))),
    # total mass 0.35, below 0.5, so that 5e-324 * mass underflows to 0
    "invsq": LevyModel(eta=eta_linear(0.5), lambda_star=0.5, density="invsq", eps=0.85),
}
_SEEDS = (0, -1, 2**63 + 5, 2**64 + 3)


# lam dt = 0 by underflow, exp(-lam dt) = 1, then numpy's multiplication
# method up to 9.5 and its rejection sampler (the per-lane fallback) at 12
@pytest.mark.parametrize("mean", ["underflow", 1e-20, 0.031, 2.25, 9.5, 12.0])
@pytest.mark.parametrize("measure", sorted(_MEASURES))
def test_step_events_match_freshly_keyed_generators(measure, mean, monkeypatch):
    from plaplace_levy import levy

    model = _MEASURES[measure]
    total = model.total_mass
    dt = 5e-324 if mean == "underflow" else mean / total
    assert (total * dt == 0.0) == (mean == "underflow")
    n_steps = 6
    ref = [_fresh_events(model, dt, s, k) for s in _SEEDS for k in range(n_steps)]
    ref_counts = [len(m) for m in ref]
    counts, marks = levy.step_events(model, dt, _SEEDS, range(n_steps))
    assert counts.tolist() == ref_counts
    assert np.array_equal(marks, np.concatenate(ref))
    paths = sample_prms(model, dt, n_steps, _SEEDS)
    for i, path in enumerate(paths):
        assert path.seed == _SEEDS[i] and path.jump_count() == sum(ref_counts[6 * i : 6 * i + 6])
        for k, m in enumerate(steps_of(path.marks, path)):
            ref_m = ref[n_steps * i + k]
            assert np.array_equal(m, ref_m) and path.jump_count(k) == len(ref_m)
    # decoded in chunks of a few lanes: the same draws
    monkeypatch.setattr(levy, "_PASS_BLOCKS", 3)
    chunked = levy.step_events(model, dt, _SEEDS, range(n_steps))
    assert all(np.array_equal(a, b) for a, b in zip(chunked, (counts, marks)))


def test_sample_prms_match_per_seed_sample_prm():
    model = _MEASURES["invsq"]
    seeds = [5, -1, 2**64 + 3, 0, 5, 2**40, 3]
    dt = 1.5 / model.total_mass
    batch = sample_prms(model, dt, 8, seeds)
    assert [p.seed for p in batch] == seeds
    for seed, path in zip(seeds, batch):
        (single,) = sample_prms(model, dt, 8, [seed])
        for x in ("counts", "marks"):
            assert np.array_equal(getattr(path, x), getattr(single, x))


def test_lanes_past_a_one_block_pass_take_a_second_pass():
    from plaplace_levy.levy import _decoded_events

    model = _MEASURES["two_atoms"]
    z, lam = model.atoms
    cdf = (lam / lam.sum()).cumsum()
    cdf /= cdf[-1]
    dt = 2.25 / model.total_mass
    keys = np.repeat(np.array([s & (2**64 - 1) for s in _SEEDS], dtype=np.uint64), 5)
    steps = np.tile(np.arange(5, dtype=np.uint64), len(_SEEDS))
    counts, marks = _decoded_events(keys, steps, 2.25, cdf, z, 3, 1)
    # one block holds 4 doubles: only counts 0 and 1 fit
    assert counts.max() >= 2
    ref = [_fresh_events(model, dt, s, k) for s in _SEEDS for k in range(5)]
    assert counts.tolist() == [len(m) for m in ref]
    assert np.array_equal(marks, np.concatenate(ref))


def test_negative_jump_masses_rejected():
    model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5,
                      point_masses=((1.0, 2.0), (-0.5, -1.0)))
    with pytest.raises(ValueError, match="nonnegative"):
        sample_prms(model, 0.25, 4, [1])


def test_measure_masses_are_computed_once_per_model():
    # the Newton iterations read mark_mass; it and its siblings are cached
    # like `atoms`, with the values the quadrature gives
    model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5, density="invsq", eps=0.01)
    z, lam = model.atoms
    expected = {"total_mass": float(lam.sum()),
                "mark_mass": float(np.minimum(1.0, np.abs(z)) @ lam),
                "c_eta": float(np.sum(np.minimum(1.0, np.abs(z)) ** 2 * lam))}
    for name, value in expected.items():
        assert getattr(model, name) == value and name in vars(model)
        assert getattr(model, name) is getattr(model, name)
