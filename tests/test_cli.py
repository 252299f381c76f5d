"""End-to-end tests of the command-line interface via main(argv)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import deltalab
from deltalab import __version__
from deltalab.cli import main
from deltalab.expr import FUNCTIONS
from deltalab.qm1d import susy_partner_core_integral
from test_acceptance import CLI_EXAMPLES


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def csv_comments(out):
    return [l for l in out.splitlines() if l.startswith("#")]


# ---------------------------------------------------------------------------
# kernel tabulation
# ---------------------------------------------------------------------------


def test_kernel_table_structure(capsys):
    code, out, err = run_cli(
        capsys,
        ["kernel", "--family", "gaussian", "--eps", "0.2",
         "--grid", "-0.2:0.2:0.1", "--no-timestamp"],
    )
    assert code == 0
    assert err == ""
    header, rows = csv_rows(out)
    assert header == ["zeta", "value"]
    assert len(rows) == 5
    # symmetric values on the symmetric grid
    assert rows[0][1] == rows[4][1]
    comments = csv_comments(out)
    assert comments[0] == f"# deltalab {__version__}"
    assert comments[1] == "# command: kernel"
    assert comments[2].startswith("# config: ")
    assert not any(c.startswith("# generated") for c in comments)


def test_kernel_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(
        capsys,
        ["kernel", "--family", "box", "--eps", "0.1", "--grid", "0:0.1:0.1"],
    )
    assert code == 0
    assert any(c.startswith("# generated: ") for c in csv_comments(out))


def test_kernel_box_values(capsys):
    code, out, _ = run_cli(
        capsys,
        ["kernel", "--family", "box", "--eps", "0.2",
         "--grid", "-0.1:0.1:0.1", "--no-timestamp"],
    )
    assert code == 0
    _, rows = csv_rows(out)
    for row in rows:
        assert float(row[1]) == pytest.approx(2.5, rel=1e-15)


def test_bad_grid_is_a_single_line_error(capsys):
    code, out, err = run_cli(
        capsys, ["kernel", "--family", "box", "--eps", "0.2", "--grid", "0:1"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "\x1b" not in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, ["transmogrify"])
    assert code == 1
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# action / ip / breve single-row estimates
# ---------------------------------------------------------------------------


def test_action_delta_on_cosine(capsys):
    code, out, _ = run_cli(
        capsys, ["action", "--f", "cos(z)", "--kind", "delta", "--no-timestamp"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["value", "order", "residual", "diverged"]
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(1.0, abs=1e-7)
    assert rows[0][3] == "false"


def test_action_derivative_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["action", "--f", "z^2", "--kind", "derivative", "--order", "2",
         "--no-timestamp"],
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][0]) == pytest.approx(2.0, abs=1e-6)


def test_action_order_requires_derivative_kind(capsys):
    code, _, err = run_cli(
        capsys, ["action", "--f", "cos(z)", "--kind", "delta", "--order", "2"]
    )
    assert code == 1
    assert "derivative" in err


def test_ip_recovers_origin_value(capsys):
    code, out, _ = run_cli(
        capsys,
        ["ip", "--f", "cos(z)", "--k", "1", "--moment", "2", "--no-timestamp"],
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][0]) == pytest.approx(1.0, abs=1e-6)


def test_breve_divergence_exit_code_and_table(capsys):
    code, out, _ = run_cli(
        capsys, ["breve", "--f", "1", "--no-timestamp"]
    )
    assert code == 2  # divergence is reported via the exit code
    header, rows = csv_rows(out)  # ... and the table is still emitted
    assert header == ["value", "order", "residual", "diverged"]
    assert rows[0][0] == "nan"
    assert float(rows[0][1]) == pytest.approx(-1.0, abs=0.1)
    assert rows[0][3] == "true"


def test_breve_weighted_well(capsys):
    code, out, _ = run_cli(
        capsys,
        ["breve", "--f", "exp(-z)", "--weight", "abs-zeta", "--no-timestamp"],
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][0]) == pytest.approx(-1.0, abs=1e-6)


def test_breve_dprime_well(capsys):
    code, out, _ = run_cli(
        capsys,
        ["breve", "--f", "sin(z)", "--well", "dprime", "--no-timestamp"],
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][0]) == pytest.approx(-1.0, abs=1e-6)


def test_breve_weight_conflicts_with_dprime(capsys):
    code, _, err = run_cli(
        capsys,
        ["breve", "--f", "1", "--well", "dprime", "--weight", "abs-zeta"],
    )
    assert code == 1
    assert "weight" in err


def test_bad_expression_is_a_single_line_error(capsys):
    code, out, err = run_cli(capsys, ["action", "--f", "2+*3", "--kind", "delta"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_complex_expression_value_is_a_single_line_error(capsys):
    # z^0.5 is complex for z < 0; the gaussian window samples negative z.
    code, out, err = run_cli(capsys, ["action", "--f", "z^0.5"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "z = " in err


@pytest.mark.parametrize(
    "argv, failure",
    [
        (["action", "--f", "log(z)"], "leaves a function's domain"),
        (["action", "--f", "z^-1", "--family", "lorentzian"], "overflows"),
    ],
)
def test_math_error_names_the_expression_and_the_point(capsys, argv, failure):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: expression {argv[2]!r} {failure} at z = ")


@pytest.mark.parametrize(
    "text, failure",
    [
        # sin(exp(z)) vanishes inside the gaussian window, so the integrand
        # has poles that no panel budget resolves.
        ("(-cosh(z))/(sin(exp(z)))", "quadrature budget exhausted"),
        # 1/(z*z) is inf, without raising, where z*z is subnormal.
        ("1/(z*z)", "integrand returned non-finite value"),
    ],
)
def test_quadrature_error_is_a_single_line_naming_the_expression(capsys, text, failure):
    code, out, err = run_cli(capsys, ["action", "--f", text])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: expression {text!r}: {failure}")


def _run_subprocess(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(deltalab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "text", ["(" * 300 + "z" + ")" * 300, "+".join(["z"] * 2000)], ids=["parens", "sum"]
)
def test_deep_nesting_is_a_single_line_error(text):
    proc = _run_subprocess(["-m", "deltalab.cli", "action", "--f", text])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: expression nests too deeply at offset 0\n"


def _expressions():
    atoms = st.sampled_from(["z", "1", "2.5", "0.001", "100"])

    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), inner).map("{0[0]}({0[1]})".format),
            inner.map("-({})".format),
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map("({0[0]}){0[1]}({0[2]})".format),
        )

    # No atom is a literal zero, so every expression drawn parses.
    return st.recursive(atoms, extend, max_leaves=8)


@settings(max_examples=100)
@given(
    text=_expressions(),
    command=st.sampled_from([
        ["action"], ["action", "--family", "lorentzian"], ["breve"],
        ["ip", "--k", "1", "--moment", "1"],
    ]),
)
def test_expression_errors_are_one_line_naming_the_expression(text, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--f", text, "--no-timestamp"])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert repr(text) in err.getvalue()
    else:
        assert err.getvalue() == ""


# ---------------------------------------------------------------------------
# json format
# ---------------------------------------------------------------------------


def test_json_output_is_valid_and_structured(capsys):
    code, out, _ = run_cli(
        capsys,
        ["action", "--f", "cos(z)", "--kind", "delta", "--format", "json",
         "--no-timestamp"],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "columns", "rows"}
    assert doc["config"]["command"] == "action"
    assert doc["config"]["version"] == __version__
    assert doc["columns"] == ["value", "order", "residual", "diverged"]
    assert doc["rows"][0][0] == pytest.approx(1.0, abs=1e-7)
    assert doc["rows"][0][3] is False


def test_json_encodes_non_finite_as_null(capsys):
    code, out, _ = run_cli(
        capsys, ["breve", "--f", "1", "--format", "json", "--no-timestamp"]
    )
    assert code == 2
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row[0] is None  # nan value
    assert row[2] is None  # infinite residual
    assert row[3] is True


# ---------------------------------------------------------------------------
# determinism, files, config
# ---------------------------------------------------------------------------


def test_runs_are_byte_identical_without_timestamp(capsys):
    argv = ["qm-scatter", "--potential", "well", "--strength", "1",
            "--energy", "0.5", "--eps", "0.02,0.01", "--no-timestamp"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_output_file_and_empty_stdout(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys,
        ["kernel", "--family", "box", "--eps", "0.1",
         "--grid", "0:0.1:0.05", "--no-timestamp", "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith(f"# deltalab {__version__}\n")
    assert "zeta,value" in text


def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=box\neps=0.1\ngrid=-0.1:0.1:0.1\n")
    code, out, _ = run_cli(
        capsys,
        ["kernel", "--config", str(cfg), "--eps", "0.2", "--no-timestamp"],
    )
    assert code == 0
    header, rows = csv_rows(out)
    # eps from the flag (0.2 -> flat value 2.5), family and grid from the file
    assert float(rows[0][1]) == pytest.approx(2.5, rel=1e-12)
    config_line = [c for c in csv_comments(out) if c.startswith("# config")][0]
    assert "eps=0.2" in config_line
    assert "family=box" in config_line


def test_missing_config_file_errors(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["kernel", "--config", str(tmp_path / "absent.cfg"),
         "--family", "box", "--eps", "0.1", "--grid", "0:1:1"],
    )
    assert code == 1
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# quantum subcommands
# ---------------------------------------------------------------------------


def test_qm_bound_narrow_well(capsys):
    code, out, _ = run_cli(
        capsys, ["qm-bound", "--g", "1", "--eps", "0.001", "--no-timestamp"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "energy"]
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(-0.5, abs=2e-3)


def test_qm_scatter_width_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        ["qm-scatter", "--potential", "pair", "--strength", "1",
         "--energy", "1", "--eps", "0.2,0.1", "--no-timestamp"],
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["eps", "energy", "transmission", "reflection"]
    assert len(rows) == 2
    for row in rows:
        t, r = float(row[2]), float(row[3])
        assert t + r == pytest.approx(1.0, abs=1e-10)
    assert float(rows[0][2]) > float(rows[1][2])


def test_qm_bands_scan(capsys):
    code, out, _ = run_cli(
        capsys,
        ["qm-bands", "--g", "1", "--a", "3.141592653589793",
         "--emin", "0.05", "--emax", "4", "--n", "50", "--eps", "0.001",
         "--no-timestamp"],
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["energy", "bloch_rhs", "allowed"]
    assert len(rows) == 50
    flags = {row[2] for row in rows}
    assert flags == {"true", "false"}


def test_qm_darboux_table_and_core_comment(capsys):
    code, out, _ = run_cli(
        capsys,
        ["qm-darboux", "--g", "1", "--eps", "0.001", "--n", "400",
         "--no-timestamp"],
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["zeta", "v", "v_partner"]
    assert len(rows) == 399  # the transform trims one node per side
    core_lines = [c for c in csv_comments(out) if c.startswith("# core_integral:")]
    assert len(core_lines) == 1
    assert float(core_lines[0].split(":")[1]) == pytest.approx(1.0, abs=1e-6)


def test_qm_darboux_core_in_json_config(capsys):
    code, out, _ = run_cli(
        capsys,
        ["qm-darboux", "--g", "2", "--eps", "0.001", "--n", "400",
         "--format", "json", "--no-timestamp"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["core_integral"] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("g", ["-1", "0"])
def test_qm_darboux_rejects_non_positive_strength(capsys, g):
    code, out, err = run_cli(
        capsys, ["qm-darboux", "--g", g, "--eps", "0.001", "--n", "400"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_qm_darboux_core_comment_is_the_library_value(capsys):
    code, out, _ = run_cli(
        capsys,
        ["qm-darboux", "--g", "1", "--eps", "0.001", "--n", "1000",
         "--no-timestamp"],
    )
    assert code == 0
    core_lines = [c for c in csv_comments(out) if c.startswith("# core_integral:")]
    expected = "%.17g" % susy_partner_core_integral(1.0, 0.001, 10.0, 1000)
    assert core_lines == [f"# core_integral: {expected}"]


def test_qm_commute_deviations_shrink(capsys):
    code, out, _ = run_cli(
        capsys,
        ["qm-commute", "--v0", "1", "--eps", "0.2,0.1", "--n", "800",
         "--no-timestamp"],
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["eps", "deviation"]
    assert len(rows) == 2
    assert float(rows[0][1]) > float(rows[1][1])


def test_qm_bound_window_must_be_complete(capsys):
    code, _, err = run_cli(
        capsys, ["qm-bound", "--g", "1", "--eps", "0.001", "--emin", "-1"]
    )
    assert code == 1
    assert "emin" in err and "emax" in err


# ---------------------------------------------------------------------------
# import footprint: each subcommand loads only what its code path calls
# ---------------------------------------------------------------------------

_FOOTPRINT_PROBE = """
import contextlib, io, sys
import deltalab.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = deltalab.cli.main(sys.argv[1:] + ["--no-timestamp"])
print(code, *sorted({name.partition(".")[0] for name in sys.modules} & {"numpy", "scipy"}))
"""

# Top-level numpy/scipy packages loaded by a subcommand; qm-darboux and
# qm-commute call scipy's tridiagonal eigensolver and erf, so they may load
# both and are only run.
_FOOTPRINT = {
    None: [], "kernel": [], "action": [], "ip": [], "breve": [],
    "qm-bound": ["numpy"], "qm-scatter": ["numpy"], "qm-bands": ["numpy"],
}


@pytest.mark.parametrize(
    "argv", [[]] + CLI_EXAMPLES, ids=lambda argv: argv[0] if argv else "import"
)
def test_subcommand_import_footprint(argv):
    proc = _run_subprocess(["-c", _FOOTPRINT_PROBE, *argv])
    proc.check_returncode()
    code, *loaded = proc.stdout.split()
    assert code == "0"
    command = argv[0] if argv else None
    if command in _FOOTPRINT:
        assert loaded == _FOOTPRINT[command]
