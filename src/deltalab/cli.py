"""Command-line interface.

Every subcommand emits a single table, as CSV (default) or JSON, to
stdout or --output.  CSV tables start with '#' comment lines carrying the
tool version, the subcommand, the effective configuration, and a UTC
timestamp unless --no-timestamp is given.  Exit codes: 0 success, 1 error
(single-line diagnostic on stderr), 2 when the requested limit diverged
(the table is still emitted).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .breve import breve_action, delta_prime_action
from .distint import ActionKind, EpsilonSchedule, distribution_action
from .expr import make_function
from .kernels import KERNEL_KINDS, eval_kernel
from .quadrature import NonFiniteIntegrandError, QuadratureBudgetError
from .singular import ALPHA_MODES, singular_action


class _CliError(ValueError):
    pass


# Values of these flags may begin with '-' (negative grid endpoints,
# expressions); they are merged into --flag=value form before argparse
# sees them so they are not mistaken for option strings.
_GREEDY_FLAGS = ("--grid", "--f", "--eps")


def _merge_greedy(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _GREEDY_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


class _Parser(argparse.ArgumentParser):
    # argparse's default error handler exits with status 2, which this
    # tool reserves for divergence; route errors through the normal
    # single-line diagnostic path instead.
    def error(self, message):
        raise _CliError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None)
    sub.add_argument("--config", default=None, help="key=value file; flags override it")
    sub.add_argument("--no-timestamp", action="store_true")


def _add_schedule(sub: argparse.ArgumentParser, steps: int = 8) -> None:
    sub.add_argument("--eps0", type=float, default=0.4)
    sub.add_argument("--ratio", type=float, default=0.5)
    sub.add_argument("--steps", type=int, default=steps)
    sub.add_argument("--tol", type=float, default=1e-12)


def _build_parser() -> _Parser:
    p = _Parser(prog="deltalab")
    subs = p.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("kernel", help="tabulate a kernel on a grid")
    sp.add_argument("--family", choices=KERNEL_KINDS, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--grid", required=True, help="a:b:step")
    sp.add_argument("--order", type=int, default=0)
    _add_common(sp)

    sp = subs.add_parser("action", help="extrapolated kernel pairing")
    sp.add_argument("--f", required=True, help="expression in z")
    sp.add_argument(
        "--kind", choices=("delta", "derivative", "moment", "fourier"), default="delta"
    )
    sp.add_argument("--order", type=int, default=0)
    sp.add_argument("--family", choices=KERNEL_KINDS, default="gaussian")
    _add_schedule(sp)
    _add_common(sp)

    sp = subs.add_parser("ip", help="singular-moment kernel pairing")
    sp.add_argument("--f", required=True, help="expression in z")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--moment", type=float, default=0.0)
    sp.add_argument("--sing-order", type=int, default=0)
    sp.add_argument("--alpha-mode", choices=ALPHA_MODES, default="numeric")
    sp.add_argument("--no-hat", action="store_true")
    _add_schedule(sp, steps=12)
    _add_common(sp)

    sp = subs.add_parser("breve", help="box-well pairing")
    sp.add_argument("--f", required=True, help="expression in z")
    sp.add_argument("--well", choices=("breve", "dprime"), default="breve")
    sp.add_argument("--weight", choices=("none", "abs-zeta"), default="none")
    _add_schedule(sp)
    _add_common(sp)

    sp = subs.add_parser("qm-bound", help="bound states of the narrow well")
    sp.add_argument("--g", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--emin", type=float, default=None)
    sp.add_argument("--emax", type=float, default=None)
    _add_common(sp)

    sp = subs.add_parser("qm-scatter", help="transmission through a narrow potential")
    sp.add_argument("--potential", choices=("well", "pair"), default="well")
    sp.add_argument("--strength", type=float, required=True)
    sp.add_argument("--energy", type=float, required=True)
    sp.add_argument("--eps", required=True, help="comma-separated width list")
    _add_common(sp)

    sp = subs.add_parser("qm-bands", help="dispersion scan of the well lattice")
    sp.add_argument("--g", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--emin", type=float, required=True)
    sp.add_argument("--emax", type=float, required=True)
    sp.add_argument("--n", type=int, default=200)
    _add_common(sp)

    sp = subs.add_parser("qm-darboux", help="partner of the smoothed well state")
    sp.add_argument("--g", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--span", type=float, default=10.0, help="half-width in units of eps")
    sp.add_argument("--n", type=int, default=2000)
    _add_common(sp)

    sp = subs.add_parser("qm-commute", help="regularize-then-factorize deviation")
    sp.add_argument("--v0", type=float, required=True)
    sp.add_argument("--eps", default="0.2,0.1,0.05,0.025", help="comma-separated widths")
    sp.add_argument("--n", type=int, default=3000)
    _add_common(sp)

    return p


def _splice_config(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise _CliError("--config requires a file path")
    path = argv[idx + 1]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _CliError(f"cannot read config file {path!r}: {exc}") from exc
    extra: list[str] = []
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliError(f"{path}:{ln}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise _CliError(f"{path}:{ln}: expected key = value")
        extra.append(f"--{key}")
        extra.append(value)
    # Config-derived flags go right after the subcommand so that flags
    # typed on the command line take precedence.
    return [argv[0], *extra, *argv[1:]]


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError(f"grid must be a:b:step, got {text!r}")
    try:
        a, b, step = (float(x) for x in parts)
    except ValueError as exc:
        raise _CliError(f"grid must be numeric a:b:step, got {text!r}") from exc
    if step <= 0 or b < a:
        raise _CliError("grid needs b >= a and step > 0")
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return [a + i * step for i in range(count)]


def _parse_eps_list(text: str) -> list[float]:
    try:
        out = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise _CliError(f"bad width list {text!r}") from exc
    if not out:
        raise _CliError("width list is empty")
    return out


def _schedule(ns: argparse.Namespace) -> EpsilonSchedule:
    return EpsilonSchedule(start=ns.eps0, ratio=ns.ratio, steps=ns.steps)


def _estimate_row(est) -> list:
    return [est.value, est.order, est.residual, est.diverged]


def _run_command(ns: argparse.Namespace):
    """Returns (columns, rows, config, extra_comments, diverged)."""
    cmd = ns.command
    if cmd == "kernel":
        grid = _parse_grid(ns.grid)
        rows = [[z, eval_kernel(ns.family, ns.eps, z, ns.order)] for z in grid]
        cfg = {"family": ns.family, "eps": ns.eps, "grid": ns.grid, "order": ns.order}
        return ["zeta", "value"], rows, cfg, [], False

    if cmd == "action":
        f = make_function(ns.f)
        kind = ActionKind(ns.kind, ns.order)
        est = distribution_action(f, kind, kernel=ns.family, schedule=_schedule(ns), tol=ns.tol)
        cfg = {
            "f": ns.f, "kind": ns.kind, "order": ns.order, "family": ns.family,
            "eps0": ns.eps0, "ratio": ns.ratio, "steps": ns.steps, "tol": ns.tol,
        }
        return ["value", "order", "residual", "diverged"], [_estimate_row(est)], cfg, [], est.diverged

    if cmd == "ip":
        f = make_function(ns.f)
        est = singular_action(
            f, ns.k, singular_moment=ns.moment, schedule=_schedule(ns),
            singularity_order=ns.sing_order, tol=ns.tol,
            hatted=not ns.no_hat, alpha_mode=ns.alpha_mode,
        )
        cfg = {
            "f": ns.f, "k": ns.k, "moment": ns.moment, "sing_order": ns.sing_order,
            "alpha_mode": ns.alpha_mode, "hatted": not ns.no_hat,
            "eps0": ns.eps0, "ratio": ns.ratio, "steps": ns.steps, "tol": ns.tol,
        }
        return ["value", "order", "residual", "diverged"], [_estimate_row(est)], cfg, [], est.diverged

    if cmd == "breve":
        f = make_function(ns.f)
        if ns.well == "breve":
            weight = None if ns.weight == "none" else "abs_zeta"
            est = breve_action(f, weight=weight, schedule=_schedule(ns), tol=ns.tol)
        else:
            if ns.weight != "none":
                raise _CliError("--weight applies only to --well breve")
            est = delta_prime_action(f, schedule=_schedule(ns), tol=ns.tol)
        cfg = {
            "f": ns.f, "well": ns.well, "weight": ns.weight,
            "eps0": ns.eps0, "ratio": ns.ratio, "steps": ns.steps, "tol": ns.tol,
        }
        return ["value", "order", "residual", "diverged"], [_estimate_row(est)], cfg, [], est.diverged

    # qm1d loads numpy (and, for the grid subcommands, scipy), so it is
    # imported only by the subcommands that use it.
    if cmd == "qm-bound":
        from .qm1d import bound_states, delta_well_box

        pot = delta_well_box(ns.g, ns.eps)
        window = None
        if ns.emin is not None or ns.emax is not None:
            if ns.emin is None or ns.emax is None:
                raise _CliError("--emin and --emax must be given together")
            window = (ns.emin, ns.emax)
        energies = bound_states(pot, window=window)
        rows = [[i, float(e)] for i, e in enumerate(energies)]
        cfg = {"g": ns.g, "eps": ns.eps}
        if window is not None:
            cfg.update({"emin": ns.emin, "emax": ns.emax})
        return ["n", "energy"], rows, cfg, [], False

    if cmd == "qm-scatter":
        from .qm1d import delta_prime_pair, delta_well_box, scattering

        widths = _parse_eps_list(ns.eps)
        rows = []
        for eps in widths:
            if ns.potential == "well":
                pot = delta_well_box(ns.strength, eps)
            else:
                pot = delta_prime_pair(ns.strength, eps)
            res = scattering(pot, ns.energy)
            rows.append([eps, ns.energy, res.transmission, res.reflection])
        cfg = {"potential": ns.potential, "strength": ns.strength,
               "energy": ns.energy, "eps": ns.eps}
        return ["eps", "energy", "transmission", "reflection"], rows, cfg, [], False

    if cmd == "qm-bands":
        from .qm1d import band_structure

        if ns.n < 2:
            raise _CliError("--n must be at least 2")
        energies = [ns.emin + i * (ns.emax - ns.emin) / (ns.n - 1) for i in range(ns.n)]
        pts = band_structure(ns.g, ns.a, energies, ns.eps)
        rows = [[p.energy, p.bloch_rhs, p.allowed] for p in pts]
        cfg = {"g": ns.g, "a": ns.a, "eps": ns.eps,
               "emin": ns.emin, "emax": ns.emax, "n": ns.n}
        return ["energy", "bloch_rhs", "allowed"], rows, cfg, [], False

    if cmd == "qm-darboux":
        from .qm1d import susy_partner, susy_partner_core_integral

        well, partner = susy_partner(ns.g, ns.eps, ns.span, ns.n)
        core = susy_partner_core_integral(ns.g, ns.eps, ns.span, ns.n)
        rows = [
            [float(z), float(v), float(p)]
            for z, v, p in zip(partner.grid, well.values[1:-1], partner.values)
        ]
        cfg = {"g": ns.g, "eps": ns.eps, "span": ns.span, "n": ns.n}
        comments = ["core_integral: %.17g" % core]
        return ["zeta", "v", "v_partner"], rows, cfg, comments, False

    if cmd == "qm-commute":
        from .qm1d import darboux_commutation_check

        widths = _parse_eps_list(ns.eps)
        pairs = darboux_commutation_check(ns.v0, widths, n_points=ns.n)
        rows = [[e, d] for e, d in pairs]
        cfg = {"v0": ns.v0, "eps": ns.eps, "n": ns.n}
        return ["eps", "deviation"], rows, cfg, [], False

    raise _CliError(f"unknown command {cmd!r}")


def _fmt_float(v: float) -> str:
    return "%.17g" % v


def _fmt_cell_csv(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _fmt_cell_json(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not math.isfinite(v):
            return "null"
        return _fmt_float(v)
    if isinstance(v, int):
        return str(v)
    return json.dumps(v)


def _fmt_cfg(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(fh, command, cfg, columns, rows, comments, timestamp):
    fh.write(f"# deltalab {__version__}\n")
    fh.write(f"# command: {command}\n")
    echo = " ".join(f"{k}={_fmt_cfg(v)}" for k, v in sorted(cfg.items()))
    fh.write(f"# config: {echo}\n")
    if timestamp:
        now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        fh.write(f"# generated: {now}\n")
    for line in comments:
        fh.write(f"# {line}\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_fmt_cell_csv(v) for v in row) + "\n")


def _write_json(fh, command, cfg, columns, rows, comments, timestamp):
    cfg = dict(cfg)
    cfg["command"] = command
    cfg["version"] = __version__
    if timestamp:
        cfg["generated"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    for line in comments:
        key, _, val = line.partition(":")
        cfg[key.strip()] = float(val)
    cfg_body = ", ".join(
        f"{json.dumps(k)}: {_fmt_cell_json(v)}" for k, v in sorted(cfg.items())
    )
    cols_body = ", ".join(json.dumps(c) for c in columns)
    fh.write("{\n")
    fh.write(f'  "config": {{{cfg_body}}},\n')
    fh.write(f'  "columns": [{cols_body}],\n')
    fh.write('  "rows": [\n')
    for i, row in enumerate(rows):
        body = ", ".join(_fmt_cell_json(v) for v in row)
        sep = "," if i + 1 < len(rows) else ""
        fh.write(f"    [{body}]{sep}\n")
    fh.write("  ]\n")
    fh.write("}\n")


def _emit(ns, columns, rows, cfg, comments) -> None:
    timestamp = not ns.no_timestamp
    writer = _write_csv if ns.format == "csv" else _write_json
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            writer(fh, ns.command, cfg, columns, rows, comments, timestamp)
    else:
        writer(sys.stdout, ns.command, cfg, columns, rows, comments, timestamp)


def _diagnostic(message: str) -> None:
    # Single line; color only on a terminal and only when NO_COLOR is unset.
    text = f"error: {message}"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        text = f"\x1b[31m{text}\x1b[0m"
    print(text.replace("\n", " "), file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and not argv[0].startswith("-"):
            argv = _splice_config(argv)
        ns = _build_parser().parse_args(_merge_greedy(argv))
        columns, rows, cfg, comments, diverged = _run_command(ns)
        _emit(ns, columns, rows, cfg, comments)
        return 2 if diverged else 0
    except BrokenPipeError:
        return 1
    except (NonFiniteIntegrandError, QuadratureBudgetError) as exc:
        # Only the pairing subcommands integrate, and their integrand is --f.
        _diagnostic(f"expression {ns.f!r}: {exc}")
        return 1
    except (_CliError, ValueError, ZeroDivisionError, OverflowError) as exc:
        _diagnostic(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
