"""Turn task outputs into verdicts against the oracles.

Library tasks and CLI tasks share one output shape per task kind, so a
CLI table is parsed into the same dict the in-process task returns and
goes through the same check.  ``tally`` adds each verdict to a run's
record, naming the found defect a failure falls under, if any.
"""

from __future__ import annotations

import math

import oracles as o


def check(task: dict, out: dict) -> o.Verdict:
    kind = task["kind"]
    if kind == "cli":
        return check(task["spec"], out)
    if kind in ("action", "singular", "breve", "dprime") and out.get("diverged"):
        return o.Verdict(False, 0.0, f"{kind}: extrapolation reported divergence")
    if kind == "action":
        return o.check_action(task, out["value"])
    if kind == "singular":
        return o.check_singular(task, out["value"])
    if kind in ("breve", "dprime"):
        return o.check_well(task, out["value"])
    if kind == "kernel":
        return o.check_kernel_table(task["family"], task["eps"], out["rows"])
    if kind == "bound":
        return o.check_bound_states(task["g"], task["eps"], out["energies"])
    if kind == "scatter_box":
        return o.check_box_scattering(task["g"], task["eps"], task["energy"], out["t"], out["r"])
    if kind == "scatter_pieces":
        return o.check_flux(out["tl"], out["rl"], out["tr"], out["rr"])
    if kind == "scatter_sweep":
        verdicts = []
        for eps, energy, t, r in out["rows"]:
            if task["potential"] == "well":
                verdicts.append(o.check_box_scattering(task["strength"], eps, energy, t, r))
            else:
                verdicts.append(o.compare(t + r, 1.0, 1e-10, f"T+R at eps={eps!r}"))
        return o.worst(verdicts)
    if kind == "bands":
        return o.check_bands(task["g"], task["a"], task["eps"], out["rows"])
    if kind == "darboux_core":
        return o.check_core_integral(task["g"], out["value"])
    if kind == "commute":
        return o.check_commutation(out["deviations"])
    raise ValueError(f"no check for task kind {kind!r}")


# Input regimes in which the library is known to give wrong answers.  Their
# tasks stay in the workloads, and each failure among them counts as a
# failure; a run reports correct only while no failure falls outside them.
# bench/tests/test_oracles.py reproduces each one.
KNOWN_DEFECTS = {
    "zero-limit derivative": "a derivative pairing whose limit is zero is reached only "
                             "through roundoff growing like eps^-(n+1), and is reported divergent",
    "fourth derivative": "the full-sequence Aitken refinement moves converging samples: "
                         "fourth-derivative pairings land up to 1.5e-4 (gaussian) and 0.4 % "
                         "(lorentzian) from the limit, where orders 1 to 3 stay within 1e-6",
    "quartic": "the eps^2 and eps^4 corrections of a quartic (eps and eps^3 for the moment) "
               "can cancel inside the width schedule, and the Aitken refinement of the "
               "sign-changing samples leaves errors near 1e-6 where the samples reached 3e-9",
    "growing f on lorentzian": "the lorentzian's fixed window truncates its slow tails, and "
                               "exponentials and quartics are extrapolated wrongly or "
                               "reported divergent",
    "singular small omega": "as the prescribed moment omega -> 0 the hatted kernel "
                            "degenerates to the plain one and the limit keeps about 4 digits",
    "singular k=3": "a hatted pairing with a |z|^-3 part keeps 4.5 to 6 digits",
}


def known_defect(task: dict) -> str | None:
    """The found defect whose input regime holds the task, if any."""
    if task["kind"] == "cli":
        return known_defect(task["spec"])
    if task["kind"] == "singular":
        if abs(task["omega"]) < 0.5:
            return "singular small omega"
        return "singular k=3" if task["k"] == 3 else None
    if (task["kind"] == "action" and task["kernel"] == "lorentzian"
            and task["family"] in ("exp", "poly")):
        return "growing f on lorentzian"
    if task.get("family") == "poly" and task.get("variant") != "derivative":
        return "quartic"
    if task.get("variant") == "derivative":
        if o.family_derivatives(task["family"], tuple(task["params"]))[task["order"]] == 0.0:
            return "zero-limit derivative"
        if task["order"] == 4:
            return "fourth derivative"
    return None


def new_record() -> dict:
    """Verdicts of a run: ``digits`` of every value check (0 for a task that
    raised), ``sound_digits`` of the checks that passed outside the known
    defects, and the failure messages, all of them and those outside the
    known defects."""
    return {"digits": [], "sound_digits": [], "failures": [], "unexpected": []}


def tally(task: dict, out, record: dict) -> None:
    """Check one output (or the exception its task raised) and add the
    verdict to record."""
    if isinstance(out, Exception):
        v = o.Verdict(False, 0.0, f"{task['kind']}: {type(out).__name__}: {out}")
    else:
        v = check(task, out)
    defect = known_defect(task)
    if v.digits is not None:
        record["digits"].append(v.digits)
        if v.ok and defect is None:
            record["sound_digits"].append(v.digits)
    if not v.ok:
        label = " ".join(task["argv"]) if task["kind"] == "cli" else task.get("f", task["kind"])
        record["failures"].append(f"[{defect or 'unexpected'}] {label}: {v.detail}")
        if defect is None:
            record["unexpected"].append(record["failures"][-1])


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def parse_cli(task: dict, text: str) -> dict:
    """Parse a CSV table written by the CLI into the output dict of the
    task's spec kind."""
    comments = [ln[1:].strip() for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = [[_cell(c) for c in ln.split(",")] for ln in body[1:]]
    kind = task["spec"]["kind"]
    if kind in ("action", "singular", "breve", "dprime"):
        (value, _order, _residual, diverged), = rows
        return {"value": value, "diverged": diverged}
    if kind in ("kernel", "bands"):
        return {"rows": [(r[0], r[1]) for r in rows]}
    if kind == "bound":
        return {"energies": [r[1] for r in rows]}
    if kind == "scatter_sweep":
        return {"rows": [tuple(r) for r in rows]}
    if kind == "darboux_core":
        core = [c for c in comments if c.startswith("core_integral:")]
        return {"value": float(core[0].split(":", 1)[1]) if core else math.nan}
    if kind == "commute":
        return {"deviations": [r[1] for r in rows]}
    raise ValueError(f"no CLI parser for {kind!r}")
