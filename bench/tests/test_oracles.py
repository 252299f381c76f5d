"""Tests of the benchmark's oracles, generators and tracer.

    PYTHONPATH=src python -m pytest -q bench/tests

The oracle tests use only the standard library.  The tests marked
``found_defect`` reproduce the found defects that checks.KNOWN_DEFECTS
lists, one library call each; they are strict xfails, so a library fix
turns them into failures that ask for the entry to be removed.
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import oracles as o  # noqa: E402
import workloads  # noqa: E402

PY = {
    "cos": lambda p: lambda z: p[0] * math.cos(p[1] * z),
    "sin_shift": lambda p: lambda z: p[0] * math.sin(p[1] * z) + p[2],
    "exp": lambda p: lambda z: p[0] * math.exp(p[1] * z),
    "runge": lambda p: lambda z: p[0] / (1.0 + p[1] * z * z),
    "poly": lambda p: lambda z: sum(c * z**n for n, c in enumerate(p)),
}
PARAMS = {"cos": (1.3, 0.7), "sin_shift": (0.9, 1.1, -0.4), "exp": (1.2, -0.8),
          "runge": (0.7, 1.1), "poly": (0.5, -0.3, 0.8, 0.2, -0.6)}

# central differences of orders 0..4 on a 7-point stencil, error O(h^2)
STENCILS = [
    {0: 1.0},
    {-1: -0.5, 1: 0.5},
    {-1: 1.0, 0: -2.0, 1: 1.0},
    {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
]


@pytest.mark.parametrize("family", sorted(PY))
def test_family_derivatives_match_finite_differences(family):
    p = PARAMS[family]
    f = PY[family](p)
    exact = o.family_derivatives(family, p)
    h = 1e-2
    for n, stencil in enumerate(STENCILS):
        fd = sum(w * f(j * h) for j, w in stencil.items()) / h**n
        assert fd == pytest.approx(exact[n], rel=1e-3, abs=1e-3), n


@pytest.mark.parametrize("family", sorted(PY))
def test_family_source_is_the_function(family):
    from_text = eval(o.family_source(family, PARAMS[family]).replace("^", "**"),
                     {"cos": math.cos, "sin": math.sin, "exp": math.exp, "abs": abs}, {"z": 0.37})
    assert from_text == pytest.approx(PY[family](PARAMS[family])(0.37), rel=1e-15)


def test_action_expected_signs():
    p = (2.0, 1.5)
    assert o.action_expected("exp", p, "derivative", 3) == pytest.approx(-2.0 * 1.5**3)
    assert o.action_expected("exp", p, "delta", 0) == 2.0
    assert o.action_expected("exp", p, "moment", 0) == 0.0


def test_digits_is_capped_and_floors_at_zero():
    assert o.digits(0.0, 1.0) == o.MAX_DIGITS
    assert o.digits(math.inf, 1.0) == 0.0
    assert o.digits(1e-4, 2.0) == pytest.approx(-math.log10(5e-5))
    assert o.digits(10.0, 1.0) == 0.0


def test_square_well_point_limit():
    # depth g/(2 eps) on |z| <= eps tends to the point well, E = -g^2/2
    for g in (0.5, 1.0, 2.0):
        (e,) = o.square_well_energies(g / 2e-6, 1e-6)
        assert e == pytest.approx(-0.5 * g * g, rel=1e-5)


def test_square_well_roots_solve_the_matching_conditions():
    depth, half = 40.0, 0.6
    energies = o.square_well_energies(depth, half)
    z0 = half * math.sqrt(2.0 * depth)
    assert len(energies) == math.ceil(z0 / (math.pi / 2))
    for n, e in enumerate(energies):
        k = math.sqrt(2.0 * (e + depth))
        kappa = math.sqrt(-2.0 * e)
        if n % 2 == 0:
            assert k * math.tan(k * half) == pytest.approx(kappa, rel=1e-9)
        else:
            assert -k / math.tan(k * half) == pytest.approx(kappa, rel=1e-9)


def test_box_transmission_limits():
    # resonance: q w = pi gives full transmission
    depth, energy = 3.0, 1.0
    w = math.pi / math.sqrt(2.0 * (energy + depth))
    assert o.box_transmission(depth, w, energy) == pytest.approx(1.0, abs=1e-15)
    # narrow well of integral -g: T = k^2 / (k^2 + g^2)
    g, eps, energy = 1.3, 1e-7, 0.8
    k2 = 2.0 * energy
    assert o.box_transmission(g / (2 * eps), 2 * eps, energy) == pytest.approx(
        k2 / (k2 + g * g), rel=1e-6)


def test_kronig_penney_point_law():
    g, a, energy = 1.0, math.pi, 1.7
    k = math.sqrt(2 * energy)
    point = math.cos(k * a) - g / k * math.sin(k * a)
    assert o.kronig_penney_half_trace(g, a, 1e-8, energy) == pytest.approx(point, abs=1e-6)


def test_kernel_values_have_unit_mass():
    for family in ("gaussian", "lorentzian"):
        eps, n, lo, hi = 0.05, 200000, -40.0, 40.0
        h = (hi - lo) / n
        mass = h * sum(o.kernel_value(family, eps, lo + (i + 0.5) * h) for i in range(n))
        tail = 0.0 if family == "gaussian" else 2 * math.atan2(eps, hi) / math.pi
        assert mass + tail == pytest.approx(1.0, abs=1e-6)


def test_property_checks():
    assert o.check_flux(0.3, 0.7, 0.3, 0.7).ok
    assert not o.check_flux(0.3, 0.7, 0.31, 0.69).ok
    assert o.check_commutation([3.0, 1.0, 0.5]).ok
    assert not o.check_commutation([3.0, 3.0]).ok
    assert o.check_commutation([3.0, 1.0]).digits is None


def test_parse_cli_tables():
    task = {"kind": "cli", "spec": {"kind": "darboux_core", "g": 1.0}}
    text = ("# deltalab 0.1.0\n# command: qm-darboux\n# config: g=1.0\n"
            "# core_integral: 0.99999999999893\nzeta,v,v_partner\n-0.01,0,1\n")
    assert checks.parse_cli(task, text) == {"value": 0.99999999999893}
    task = {"kind": "cli", "spec": {"kind": "action"}}
    text = "# c\nvalue,order,residual,diverged\n1.0000000001,2,1e-12,false\n"
    assert checks.parse_cli(task, text) == {"value": 1.0000000001, "diverged": False}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_reproducible_and_seeded(workload):
    a = workloads.prefix(workload, 7, 3)
    assert a == workloads.prefix(workload, 7, 3)
    assert a != workloads.prefix(workload, 8, 3)
    rounds = workloads.rounds(workload, 9)
    kinds = [sorted(t["kind"] for t in next(rounds)) for _ in range(4)]
    assert all(k == kinds[0] for k in kinds)


def test_checked_sample_does_not_depend_on_the_time_given():
    from worker import closed_loop

    def fail_every_third(task):
        fail_every_third.n += 1
        if fail_every_third.n % 3 == 0:
            return 1, RuntimeError("x")
        return 1, {"tl": 0.25, "rl": 0.75, "tr": 0.25, "rr": 0.75}

    stream = [[{"kind": "scatter_pieces"}] for _ in range(50)]
    results = []
    for seconds in (0.0, 0.05):
        fail_every_third.n = 0
        lat, sample, later = closed_loop(iter(stream), fail_every_third, seconds, checked=7)
        assert len(lat) >= 7
        results.append(sample["failures"])
    assert results[0] == results[1] and len(results[0]) == 2


def test_cli_first_round_is_the_documented_examples():
    first = workloads.prefix("cli", 3, 1)
    assert sorted(map(tuple, (t["argv"] for t in first))) == sorted(
        tuple(argv) for argv, _ in workloads.CLI_EXAMPLES)


def test_cli_examples_are_the_acceptance_suites():
    import ast
    path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (documented,) = [ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CLI_EXAMPLES"]]
    assert [argv for argv, _ in workloads.CLI_EXAMPLES] == documented


def test_benchmark_json_matches_the_harness():
    import json
    import run
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


# -- tests that need the library ----------------------------------------------

ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
deltalab = pytest.importorskip("deltalab")

import tasks  # noqa: E402
import tracing  # noqa: E402


def _verdict(task):
    return checks.check(task, tasks.run(task))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_round_fails_only_in_known_defects(workload):
    record = checks.new_record()
    for task in workloads.prefix(workload, 0, 1):
        checks.tally(task, tasks.run(task), record)
    assert not record["unexpected"]
    assert record["sound_digits"]


def test_traced_counts_repeat_exactly():
    batch = workloads.census() + workloads.prefix("spectra", 5, 1) + workloads.prefix(
        "limits", 5, 1)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            for task in batch:
                tasks.run(task)
        finally:
            restore()
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: metrics[k] for k in tracing.LAYER_COUNTS})
        assert all(v >= 0 for v in tracer.totals()[0].values())
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.panels"] > 0 and counts[0]["qm1d.segments"] > 0


def test_tracer_restores_the_library():
    from deltalab import distint, quadrature
    before = (quadrature.adaptive_quadrature, distint.adaptive_quadrature)
    restore = tracing.install(tracing.Tracer())
    assert distint.adaptive_quadrature is not before[1]
    restore()
    assert (quadrature.adaptive_quadrature, distint.adaptive_quadrature) == before


found_defect = pytest.mark.xfail(strict=True, reason="found defect (checks.KNOWN_DEFECTS)")


def _action(family, params, variant, kernel, order=0):
    return {"kind": "action", "variant": variant, "order": order, "kernel": kernel,
            "family": family, "params": params, "f": o.family_source(family, params)}


def _singular(params, k, omega):
    a, b, c = params
    return {"kind": "singular", "k": k, "omega": omega, "params": params,
            "f": f"{a!r}*cos({b!r}*z) + {c!r}/abs(z)^{k}"}


# one failing task per found defect, with the entry it falls under
REPRODUCERS = {
    # f = a sin(b z) + c has f''(0) = 0; the c part leaves roundoff that
    # grows like eps^-3 and is flagged as divergence
    "zero-limit derivative": _action("sin_shift", (0.785, 0.656, 0.848), "derivative",
                                     "gaussian", 2),
    # the raw samples converge to 1.54742; the full-sequence Aitken
    # refinement moves the estimate to 1.5506
    "fourth derivative": _action("cos", (1.529, 1.003), "derivative", "gaussian", 4),
    "fourth derivative, lorentzian": _action("cos", (1.928, 1.099), "derivative",
                                             "lorentzian", 4),
    # the samples change sign between eps = 0.05 and 0.025 and reach 3e-9;
    # the refined estimate is 1.6e-6
    "quartic": _action("poly", (0.748, 0.001, -0.423, -0.767, -0.678), "moment", "box"),
    "growing f on lorentzian": _action("poly", (-0.26, -0.549, 0.635, 0.169, 0.195), "delta",
                                       "lorentzian"),
    "singular small omega": _singular((1.001, 0.95, 0.393), 1, 0.031),
    "singular k=3": _singular((0.966, 0.661, -0.505), 3, -1.888),
}


@pytest.mark.parametrize("name", sorted(REPRODUCERS))
def test_reproducers_fall_under_their_known_defect(name):
    assert checks.known_defect(REPRODUCERS[name]) == name.split(",")[0]


def test_every_known_defect_has_a_reproducer():
    assert {name.split(",")[0] for name in REPRODUCERS} == set(checks.KNOWN_DEFECTS)


@found_defect
@pytest.mark.parametrize("name", sorted(REPRODUCERS))
def test_defect_reproduces(name):
    assert _verdict(REPRODUCERS[name]).ok
