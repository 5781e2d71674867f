"""One CLI command in a fresh process, timed (and optionally traced) from
outside the package.

usage: python -I child.py ROOT RESULT_JSON MODE CLI_ARGS...

MODE is "run" (time the command), "setup" (stop where the command would
start computing) or "trace" (run it with every function in SPANS wrapped).
The result file gets the exit code, the CLOCK_MONOTONIC instants at which
the command function was entered and left (comparable with the parent's
spawn instant), and in trace mode the per-span counters.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# span name -> (module, attribute) pairs whose calls it aggregates
SPANS = {
    "cli": [("cli", f"cmd_{c}") for c in ("simulate", "verify", "optimize", "converge")],
    "config.load": [("config", "parse_config"), ("config", "RunConfig.validate")],
    "scheme.simulate_path": [("scheme", "simulate_path")],
    "scheme.step_solve": [("scheme", "step_solve")],
    "scheme.prepare_initial": [("scheme", "prepare_initial")],
    "levy.sample_prm": [("levy", "sample_prm")],
    "levy.compensated_increment": [("levy", "compensated_increment")],
    "grid.dual_norm_estimate": [("grid", "dual_norm_estimate")],
    "grid.norms": [("grid", n) for n in ("l1_norm", "l2_norm", "lp_grad_norm", "w1p_norm")],
    "estimates.generate_ensemble": [("estimates", "generate_ensemble")],
    "estimates.apriori_check": [("estimates", "apriori_check")],
    "estimates.aldous_scaling": [("estimates", "aldous_scaling")],
    "estimates.uniqueness_check": [("estimates", "uniqueness_check")],
    "estimates.isometry_check": [("estimates", "isometry_check")],
    "control.saa_minimize": [("control", "saa_minimize")],
    "control.cost_J": [("control", "cost_J")],
}


# distinct-input keys: repeated keys are repeated work
def _prepare_initial_key(u0, U, dt, p, **_):
    return (u0.values.tobytes(), float(dt), float(p))


def _sample_prm_key(model, T, dt, seed):
    return (seed, float(dt), round(T / dt))


DISTINCT_KEYS = {
    "scheme.prepare_initial": _prepare_initial_key,
    "levy.sample_prm": _sample_prm_key,
}


class Tracer:
    """Inclusive and self time per span; self time excludes wrapped callees."""

    def __init__(self, package: str):
        self.package = package
        self.stats = {name: [0, 0, 0] for name in SPANS}  # calls, incl ns, self ns
        self.distinct = {name: set() for name in DISTINCT_KEYS}
        self.stack = []  # per active span: ns spent in wrapped callees
        self.search_depth = 0
        self.failed_candidates = 0
        self.missing = []

    def _wrap(self, name, fn, nonconvergence):
        stats, stack = self.stats[name], self.stack
        key_of = DISTINCT_KEYS.get(name)
        seen = self.distinct.get(name)
        is_search = name == "control.saa_minimize"
        is_path = name == "scheme.simulate_path"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                seen.add(key_of(*args, **kwargs))
            if is_search:
                self.search_depth += 1
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except nonconvergence:
                # inside the search, a diverged path makes its candidate +inf
                if is_path and self.search_depth:
                    self.failed_candidates += 1
                raise
            finally:
                elapsed = time.perf_counter_ns() - t0
                callees = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - callees
                if stack:
                    stack[-1] += elapsed
                if is_search:
                    self.search_depth -= 1

        return wrapper

    def install(self):
        """Replace every binding of each spanned function, in every module of
        the package, so calls through re-imported names are counted too."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(self.package + ".")]
        scheme = sys.modules[f"{self.package}.scheme"]
        nonconvergence = getattr(scheme, "NonConvergence", RuntimeError)
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                owner = sys.modules.get(f"{self.package}.{mod_name}")
                cls_name, _, fn_name = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                fn = getattr(owner, fn_name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapped = self._wrap(name, fn, nonconvergence)
                if cls_name:
                    setattr(owner, fn_name, wrapped)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, wrapped)

    def report(self) -> dict:
        spans = {
            name: {"calls": c, "s": incl / 1e9, "self_s": own / 1e9}
            for name, (c, incl, own) in self.stats.items()
        }
        for name, seen in self.distinct.items():
            spans[name]["distinct"] = len(seen)
        return {"spans": spans, "failed_candidates": self.failed_candidates,
                "missing": self.missing}


def main() -> int:
    root, result_path, mode, *cli_args = sys.argv[1:]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from plaplace_levy import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"plaplace_levy was imported from {cli.__file__}, not {src}")
    tracer = None
    if mode == "trace":
        tracer = Tracer("plaplace_levy")
        tracer.install()
    marks = {}
    name = f"cmd_{cli_args[0]}"
    command = getattr(cli, name)

    def timed(cfg, out_dir):
        marks["entry"] = time.monotonic()
        rc = 0 if mode == "setup" else command(cfg, out_dir)
        marks["exit"] = time.monotonic()
        return rc

    setattr(cli, name, timed)
    rc = cli.main(cli_args)
    result = {"exit_code": rc, **marks}
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
