"""Run one task against the library in this process.

Library functions are looked up on their modules at call time, so the
wrappers the traced run installs on those modules see every call.
"""

from __future__ import annotations

import contextlib
import io

from deltalab import breve, cli, distint, expr, qm1d, singular

from checks import parse_cli


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--no-timestamp"])
    return code, out.getvalue() or err.getvalue()


def _estimate(est) -> dict:
    return {"value": est.value, "diverged": est.diverged}


def _pieces(task: dict) -> dict:
    pot = qm1d.PiecewisePotential(tuple(task["breakpoints"]), tuple(task["values"]))
    left = qm1d.scattering(pot, task["energy"], "left")
    right = qm1d.scattering(pot, task["energy"], "right")
    return {"tl": left.transmission, "rl": left.reflection,
            "tr": right.transmission, "rr": right.reflection}


def run(task: dict) -> dict:
    kind = task["kind"]
    if kind == "cli":
        code, text = run_cli(task["argv"])
        if code != 0:
            raise RuntimeError(f"cli exit {code}: {text.strip()}")
        return parse_cli(task, text)
    if kind == "action":
        f = expr.make_function(task["f"])
        action = distint.ActionKind(task["variant"], task["order"])
        schedule = distint.EpsilonSchedule(*task["schedule"]) if "schedule" in task else None
        return _estimate(distint.distribution_action(f, action, kernel=task["kernel"],
                                                     schedule=schedule))
    if kind == "singular":
        f = expr.make_function(task["f"])
        return _estimate(singular.singular_action(
            f, task["k"], singular_moment=task["omega"], singularity_order=task["k"]))
    if kind == "breve":
        return _estimate(breve.breve_action(expr.make_function(task["f"]), weight="abs_zeta"))
    if kind == "dprime":
        return _estimate(breve.delta_prime_action(expr.make_function(task["f"])))
    if kind == "scatter_box":
        res = qm1d.scattering(qm1d.delta_well_box(task["g"], task["eps"]), task["energy"])
        return {"t": res.transmission, "r": res.reflection}
    if kind == "scatter_pieces":
        return _pieces(task)
    if kind == "bound":
        energies = qm1d.bound_states(qm1d.delta_well_box(task["g"], task["eps"]))
        return {"energies": [float(e) for e in energies]}
    if kind == "bands":
        n, lo, hi = task["n"], task["emin"], task["emax"]
        energies = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
        pts = qm1d.band_structure(task["g"], task["a"], energies, task["eps"])
        return {"rows": [(p.energy, p.bloch_rhs) for p in pts]}
    if kind == "darboux_core":
        return {"value": qm1d.susy_partner_core_integral(task["g"], task["eps"],
                                                          n_points=task["n"])}
    if kind == "commute":
        pairs = qm1d.darboux_commutation_check(task["v0"], task["widths"], n_points=task["n"])
        return {"deviations": [d for _, d in pairs]}
    raise ValueError(f"unknown task kind {kind!r}")
