"""Run configuration: a key-sectioned INI file mapped onto validated model
objects.  Loading checks the structural assumptions of the model (A1 initial
data, A2 flux, A3 noise coefficient, A4 jump measure) and rejects a config
naming the violated assumption.  Serialization is canonical, so
serialize(parse(file)) is idempotent.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import (CostSpec, constant_target, control_rows, psi_l2, psi_zero, search_batches,
                      sine_basis, sine_modes)
from .estimates import _VERIFY_ISOMETRY_SAMPLES, theta_ladder
from .grid import FREE_BOUNDARY, Field, Grid, l2_norm, w1p_norm
from .levy import LevyModel, eta_linear, eta_sine, eta_zero
from .scheme import _BAND_BUDGET, FluxModel, SchemeConfig, zero_flux


class ConfigError(ValueError):
    """Invalid run configuration; message names the violated assumption
    when one of A1..A4 fails."""


# Bound on the float values one run holds at once (2^27, 1 GiB of float64):
# what `run_values` counts, and the jump marks of every path and of
# `verify`'s isometry draws (see `check_run_size`).  validate() rejects a
# config above it before any array is built.
MAX_RUN_VALUES = 2**27

# State rows of n_steps + 1 states a path that verify and the ensemble
# commands (simulate, converge) hold at their peak, bounding tracemalloc
# peaks of whole CLI runs on 1D grids of 3-16 cells and 2D grids of 3-32
# cells at 200-3,000 paths: verify held up to 10.5 rows a path in 1D and
# 10.6 in 2D (its peak is the one dual-norm ascent over both probes'
# windows of every path, or in 2D the step solve), simulate up to 5.8 and
# 6.8 (its peak is the norms of every state), and converge holds one such
# ensemble at a time.  optimize held 15.0 (1D, 400 paths) and 19.5 (2D, 6
# cells) of the 22 that `run_values` counts for its sine:2 basis.
_VERIFY_ROWS = 15
_ENSEMBLE_ROWS = 12


def run_values(n_paths: int, n_steps: int, grid: Grid, command: str = None,
               candidates: int = 1, kept: int = 1) -> int:
    """The float values a run of `command` (None: the largest count) on
    n_paths paths of n_steps steps holds besides its jumps: per path,
    _VERIFY_ROWS or _ENSEMBLE_ROWS state rows, or, for optimize, 5 for each
    of up to `candidates` controls solved at once (states, a predicted
    start, and the target differences of its cost pass and their interior
    values),
    the states of up to basis size + 1 = `kept` candidates, as many more
    that its frozen start predictor still holds, and the incumbent's; and,
    for any run, 3 arrays of _BAND_BUDGET bytes (a chunk's band systems,
    their factors and, in 2D, the factors its rows keep).  Exact, however
    large."""
    rows = {"verify": _VERIFY_ROWS, "optimize": 5 * candidates + 2 * kept + 1}
    per_path = max(rows.values()) if command is None else rows.get(command, _ENSEMBLE_ROWS)
    return per_path * n_paths * (n_steps + 1) * grid.n_nodes + 3 * _BAND_BUDGET // 8


def check_run_size(n_paths: int, n_steps: int, grid: Grid, model: LevyModel, dt: float,
                   steps_key: str, rate_key: str, command: str = None,
                   candidates: int = 1, kept: int = 1) -> None:
    """Reject a run of `command` (None: of any command) on n_paths paths of
    n_steps steps of size dt that would hold more than MAX_RUN_VALUES
    values, naming `steps_key` when its `run_values` alone would, else
    `rate_key`, the key that sets its jump rate; every command holds 2
    values a jump."""
    states = run_values(n_paths, n_steps, grid, command, candidates, kept)
    if states > MAX_RUN_VALUES:
        raise ConfigError(f"[run] n_paths, {steps_key} and [grid] n_cells give {states} "
                          f"state values, more than {MAX_RUN_VALUES}")
    rate = model.total_mass * dt  # expected jumps per step
    draws = n_paths * n_steps + (_VERIFY_ISOMETRY_SAMPLES if command in (None, "verify") else 0)
    jumps = rate * 2 * draws
    if not states + jumps <= MAX_RUN_VALUES:
        raise ConfigError(f"A4 violated: {rate_key} gives total mass * dt = {rate!r} expected "
                          f"jumps per step, so the run would hold {states + jumps:.3g} values, "
                          f"more than {MAX_RUN_VALUES}")


_DEFAULTS = {
    "grid": {"dim": "1", "n_cells": "16"},
    "scheme": {
        "p": "3.0",
        "dt": "0.03125",
        "n_steps": "16",
        "newton_tol": "1e-10",
        "newton_max_iters": "50",
        "control_projection": "clamp_boundary",
        "flux": "zero",
        "flux_coefs": "",
    },
    "levy": {
        "measure": "point:1.0@1.0",
        "eta": "linear:0.5",
        "lambda_star": "0.5",
        "eps": "0.001",
        "z_max": "1.0",
    },
    "initial": {"u0": "zero", "basis": "sine:2", "control_coeffs": ""},
    "cost": {"u_tar": "zero", "psi": "zero"},
    "run": {"n_paths": "50", "seed": "0", "out_dir": "out"},
    "converge": {"sweep": "dt", "values": "", "probe": "self", "ref_refine": "8"},
}

_SECTION_ORDER = list(_DEFAULTS)


@dataclass
class RunConfig:
    """Typed view of a parsed config; build_* methods construct the domain
    objects and perform assumption checks."""

    raw: dict = field(default_factory=dict)

    def get(self, section: str, key: str) -> str:
        try:
            return self.raw[section][key]
        except KeyError:
            raise ConfigError(f"missing config key [{section}] {key}")

    def _float(self, section, key):
        return _number(self.get(section, key), f"[{section}] {key}")

    def _int(self, section, key):
        return _number(self.get(section, key), f"[{section}] {key}", int)

    # -- builders ----------------------------------------------------------

    def build_grid(self) -> Grid:
        try:
            return Grid(self._int("grid", "dim"), self._int("grid", "n_cells"))
        except ValueError as err:  # Grid names the field
            raise ConfigError(f"[grid] {err}")

    def build_flux(self, dim: int):
        kind = self.get("scheme", "flux")
        coefs = _parse_floats(self.get("scheme", "flux_coefs"), "[scheme] flux_coefs")
        if kind == "zero":
            return zero_flux(dim)
        if kind in ("linear", "sine") and len(coefs) != dim:
            raise ConfigError(f"[scheme] flux_coefs needs {dim} values for flux = {kind}")
        try:  # FluxModel.validate rejects an unknown kind
            return FluxModel(kind, tuple(coefs)).validate()
        except ValueError as err:
            raise ConfigError(str(err))

    def build_scheme(self, dim: int) -> SchemeConfig:
        fields = dict(
            p=self._float("scheme", "p"),
            dt=self._float("scheme", "dt"),
            n_steps=self._int("scheme", "n_steps"),
            flux=self.build_flux(dim),
            newton_tol=self._float("scheme", "newton_tol"),
            newton_max_iters=self._int("scheme", "newton_max_iters"),
            control_projection=self.get("scheme", "control_projection"),
        )
        try:
            return SchemeConfig(**fields)
        except ValueError as err:  # SchemeConfig names the field
            raise ConfigError(f"[scheme] {err}")

    def build_levy(self) -> LevyModel:
        lam_star = self._float("levy", "lambda_star")
        eta_spec = self.get("levy", "eta")
        kind, _, arg = eta_spec.partition(":")
        if kind == "zero":
            eta = eta_zero()
        elif kind == "linear":
            eta = eta_linear(_number(arg, "[levy] eta coefficient") if arg else lam_star)
        elif kind == "sine":
            eta = eta_sine(_number(arg, "[levy] eta coefficient") if arg else lam_star)
        else:
            raise ConfigError(f"unknown eta kind {kind!r}")

        measure = self.get("levy", "measure")
        point_masses, density = (), None
        mkind, _, marg = measure.partition(":")
        if mkind == "none":
            pass
        elif mkind == "point":
            try:
                point_masses = tuple(
                    (float(z), float(lam))
                    for z, lam in (pair.split("@") for pair in marg.split(","))
                )
            except ValueError:
                raise ConfigError(
                    "point measure must look like point:z@mass[,z@mass...]"
                )
            if not all(math.isfinite(z) and 0.0 <= lam < math.inf for z, lam in point_masses):
                raise ConfigError(
                    "A4 violated: [levy] measure point masses must be finite and nonnegative, "
                    "at finite marks"
                )
        elif mkind == "density":
            density = marg  # LevyModel.validate rejects an unknown density
        else:
            raise ConfigError(f"unknown measure kind {mkind!r}")

        model = LevyModel(
            eta=eta,
            lambda_star=lam_star,
            point_masses=point_masses,
            density=density,
            eps=self._float("levy", "eps"),
            z_max=self._float("levy", "z_max"),
        )
        try:
            return model.validate()
        except ValueError as err:
            raise ConfigError(str(err))

    def build_initial(self, grid: Grid) -> Field:
        return _parse_field(self.get("initial", "u0"), grid, "zero_boundary")

    def basis_size(self, grid: Grid) -> int:
        """The number of [initial] basis functions on grid, checked without
        building them."""
        kind, _, arg = self.get("initial", "basis").partition(":")
        if kind == "none":
            return 0
        if kind != "sine":
            raise ConfigError(f"unknown control basis {kind!r}")
        try:
            return len(sine_modes(grid, _number(arg, "[initial] basis size", int) if arg else 2))
        except ValueError as err:
            raise ConfigError(f"[initial] basis: {err}")

    def build_basis(self, grid: Grid) -> list:
        size = self.basis_size(grid)
        return sine_basis(grid, size) if size else []

    def build_control(self, grid: Grid) -> Field:
        basis = self.build_basis(grid)
        coefs = _parse_floats(self.get("initial", "control_coeffs"), "[initial] control_coeffs")
        if not basis or not coefs:
            return Field.zeros(grid, FREE_BOUNDARY)
        if len(coefs) != len(basis):
            raise ConfigError(
                f"control_coeffs has {len(coefs)} entries, basis has {len(basis)}"
            )
        # a sine basis is orthogonal, so it passes `check_basis`
        return Field(grid, control_rows(basis, np.array([coefs]))[0].reshape(grid.node_shape),
                     FREE_BOUNDARY)

    def build_cost(self, grid: Grid, n_steps: int) -> CostSpec:
        tar = _parse_field(self.get("cost", "u_tar"), grid, "zero_boundary")
        psi_spec = self.get("cost", "psi")
        kind, _, arg = psi_spec.partition(":")
        if kind == "zero":
            psi = psi_zero()
        elif kind == "l2":
            psi = psi_l2()
        elif kind == "l2_clip":
            cap = _number(arg, "[cost] psi cap") if arg else 1.0
            if cap < 0:  # psi would be the constant cap, blind to u(T)
                raise ConfigError(f"[cost] psi cap must be >= 0, got {arg!r}")
            psi = psi_l2(cap=cap)
        else:
            raise ConfigError(f"unknown psi kind {kind!r}")
        return CostSpec(u_tar=constant_target(grid, n_steps, tar), psi=psi)

    # -- run section -------------------------------------------------------

    @property
    def n_paths(self) -> int:
        return self._int("run", "n_paths")

    @property
    def seed(self) -> int:
        return self._int("run", "seed")

    @property
    def out_dir(self) -> str:
        return self.get("run", "out_dir")

    def converge_spec(self) -> tuple:
        """(sweep, probe, values, ref_refine) of [converge]."""
        return (self.get("converge", "sweep"), self.get("converge", "probe"),
                _parse_floats(self.get("converge", "values"), "[converge] values"),
                self._int("converge", "ref_refine"))

    def validate(self, command: str = None) -> "RunConfig":
        """Check the whole config and what `command` (None: any command)
        needs of it; the run-size bound counts what `command` holds (None:
        the most any command holds)."""
        grid = self.build_grid()
        scheme = self.build_scheme(grid.dim)
        model = self.build_levy()
        if self.n_paths < 1:
            raise ConfigError("[run] n_paths must be >= 1")
        # the basis size from its spec, so that a run too large to hold is
        # rejected with its own count before any field is built
        n_basis = self.basis_size(grid)
        check_run_size(self.n_paths, scheme.n_steps, grid, model, scheme.dt, "[scheme] n_steps",
                       "[levy] measure", command,
                       search_batches(self.n_paths, grid.n_nodes, n_basis)[1], n_basis + 1)
        initial = {"u0": self.build_initial(grid), "control_coeffs": self.build_control(grid)}
        for key, f in initial.items():
            with np.errstate(over="ignore"):
                finite = math.isfinite(l2_norm(f)) and math.isfinite(w1p_norm(f, scheme.p))
            if not finite:
                raise ConfigError(
                    f"A1 violated: [initial] {key} gives data whose L2 or W^1,p norm is not finite"
                )
        self.build_cost(grid, scheme.n_steps)
        self._validate_converge(grid, scheme, model, command)
        if command in ("simulate", "verify") and self.n_paths < 2:
            raise ConfigError(f"{command} needs [run] n_paths >= 2 for ensemble statistics")
        if command == "verify" and len(theta_ladder(scheme)) < 4:
            raise ConfigError("scheme too short for increment scaling (needs n_steps >= 6)")
        if command == "optimize" and not n_basis:
            raise ConfigError("optimize needs a nonempty control basis")
        return self

    def _validate_converge(self, grid: Grid, scheme: SchemeConfig, model: LevyModel,
                           command: str) -> None:
        """Each given [converge] value must make a runnable study: a dt must
        divide T (the sweep runs round(T / dt) steps, so the horizons must
        agree), and each run of the study must fit MAX_RUN_VALUES: at each dt
        and the self probe's reference dt, or at each eps and the reference
        eps (min(values) / ref_refine).  The converge command also needs two
        distinct values, a density measure to sweep eps, and eta = zero for
        the self probe."""
        sweep, probe, values, refine = self.converge_spec()
        if sweep not in ("dt", "eps"):
            raise ConfigError(f"[converge] sweep must be dt or eps, got {sweep!r}")
        if probe not in ("gap", "self"):
            raise ConfigError(f"[converge] probe must be gap or self, got {probe!r}")
        if refine < 2:
            # the reference run must be strictly finer than every sweep point
            raise ConfigError(f"[converge] ref_refine must be >= 2, got {refine}")
        if sweep == "dt":
            for dt in values:
                n = scheme.T / dt if dt > 0 else 0.0
                if not 0.5 <= n < math.inf or abs(n - round(n)) > 1e-9 * n:
                    raise ConfigError(
                        f"[converge] values: dt = {dt!r} must be a positive step dividing "
                        f"T = {scheme.T!r}"
                    )
                check_run_size(self.n_paths, round(n), grid, model, dt, "[converge] values",
                               "[converge] values", "converge")
            if values and probe == "self":
                check_run_size(1, round(scheme.T / min(values)) * refine, grid, model,
                               min(values) / refine, "[converge] ref_refine",
                               "[converge] ref_refine", "converge")
        elif values:
            for eps in [*values, min(values) / refine]:
                try:
                    eps_model = replace(model, eps=eps).validate()
                except ValueError as err:
                    raise ConfigError(f"[converge] values: eps = {eps!r}: {err}")
                check_run_size(self.n_paths, scheme.n_steps, grid, eps_model, scheme.dt,
                               "[scheme] n_steps", "[converge] values", "converge")
        if command != "converge":
            return
        if len(values) < 2 or len(set(values)) < len(values):
            raise ConfigError("[converge] values needs at least two distinct sweep points")
        if sweep == "eps" and model.density is None:
            raise ConfigError("eps sweep needs a density measure")
        if sweep == "dt" and probe == "self" and model.total_mass > 0 and not model.eta_is_zero:
            raise ConfigError("converge probe 'self' requires eta = zero")


def _parse_floats(text: str, what: str) -> list:
    """The finite numbers of a comma list, or a ConfigError naming `what`."""
    text = text.strip()
    if not text:
        return []
    return [_number(tok, what) for tok in text.split(",")]


def _number(text: str, what: str, kind=float):
    """A finite number parsed from text, or a ConfigError naming `what`."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return value


def _field_number(text: str, preset: str, kind=float):
    """A numeric parameter of a field preset; A1 requires finite data."""
    return _number(text, f"A1 violated: field preset {preset!r}", kind)


def _parse_field(preset: str, grid: Grid, tag: str) -> Field:
    kind, _, arg = preset.partition(":")
    if kind == "zero":
        return Field.zeros(grid, tag)
    if kind == "sine":
        params = _parse_kv(arg, preset, ("amplitude", "mode"))
        amp = _field_number(params.get("amplitude", "1.0"), preset)
        mode = _field_number(params.get("mode", "1"), preset, int)
        if grid.dim == 1:
            fn = lambda x: amp * np.sin(mode * np.pi * x)
        else:
            fn = lambda x, y: amp * np.sin(mode * np.pi * x) * np.sin(mode * np.pi * y)
        return Field.from_function(grid, fn, tag)
    if kind == "constant":
        vals = np.full(grid.node_shape, _field_number(arg, preset) if arg else 1.0)
        if tag == "zero_boundary":
            flat = vals.ravel()
            flat[grid.boundary_nodes] = 0.0
            vals = flat.reshape(grid.node_shape)
        return Field(grid, vals, tag)
    if kind == "file":
        return _load_nodal_csv(arg, grid, tag)
    raise ConfigError(f"unknown field preset {preset!r}")


def _parse_kv(arg: str, preset: str, keys: tuple) -> dict:
    """The key=value pairs of field preset `preset`'s argument `arg`, each
    key one of `keys` and given at most once."""
    out = {}
    if not arg:
        return out
    for tok in arg.split(","):
        k, _, v = tok.partition("=")
        k = k.strip()
        if not v:
            raise ConfigError(f"expected key=value, got {tok!r}")
        if k not in keys or k in out:
            problem = "repeats key" if k in out else "has unknown key"
            raise ConfigError(f"field preset {preset!r} {problem} {k!r}")
        out[k] = v.strip()
    return out


def _load_nodal_csv(path: str, grid: Grid, tag: str) -> Field:
    """Nodal values, one per row in C order, column header `value`."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        vals = np.array([float(r["value"]) for r in rows])
    except (OSError, KeyError, ValueError) as err:
        raise ConfigError(f"cannot read nodal CSV {path!r}: {err}")
    if vals.size != grid.n_nodes:
        raise ConfigError(f"A1 violated: nodal CSV {path!r} has {vals.size} values, grid has "
                          f"{grid.n_nodes} nodes")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"A1 violated: nodal CSV {path!r} has values that are not finite")
    if tag == "zero_boundary":
        vals[grid.boundary_nodes] = 0.0
    return Field(grid, vals.reshape(grid.node_shape), tag)


# ---------------------------------------------------------------------------
# parse / serialize


def parse_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}")
    except configparser.Error as err:  # its message may span lines; stderr gets one
        raise ConfigError(f"malformed config: {err}".replace("\n", " "))
    return config_from_parser(parser)


def config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    raw = {}
    for section, defaults in _DEFAULTS.items():
        raw[section] = dict(defaults)
        if parser.has_section(section):
            for key, val in parser.items(section):
                if key not in defaults:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                raw[section][key] = val.strip()
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
    return RunConfig(raw=raw)


def serialize_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    for section in _SECTION_ORDER:
        out.write(f"[{section}]\n")
        for key in _DEFAULTS[section]:
            out.write(f"{key} = {cfg.raw[section][key]}\n")
        out.write("\n")
    return out.getvalue()
