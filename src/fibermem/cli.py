"""Command line front end.

Three subcommands:

    sim <scenario> [--set key=value]... [--out path] [--seed n] [--config file]
    fit <model> --data file.csv [--guess a,b,...] [--frozen name,...]
    list

Exit codes: 0 success, 2 usage or validation error, 3 solver failure,
4 fit did not converge.  Quantities cross the command line in lab units
(MHz, ns, us, nW, mW, Gauss); unit suffixes on CSV column headers are
converted to SI before fitting.  Randomness is confined to the seeded
counting generator (NumPy PCG64 via default_rng), so repeating a
command reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from .config import apply_overrides, load_config
from .eit import GridError
from .fitkit import MODELS, fit, format_result
from .scenarios import list_scenarios, run_scenario
from .waveguide import EmptyScanError, NoGuidedModeError

# header-suffix factors to SI; frequency suffixes mean f/2pi quantities
_UNIT_FACTORS = {
    "_GHz": 2.0 * math.pi * 1e9,
    "_MHz": 2.0 * math.pi * 1e6,
    "_kHz": 2.0 * math.pi * 1e3,
    "_ns": 1e-9,
    "_us": 1e-6,
    "_ms": 1e-3,
    "_s": 1.0,
    "_nW": 1e-9,
    "_uW": 1e-6,
    "_mW": 1e-3,
    "_W": 1.0,
    "_G": 1e-4,
}

_SOLVER_ERRORS = (
    GridError,
    NoGuidedModeError,
    EmptyScanError,
    FloatingPointError,
)


def _column_factor(name: str) -> float:
    for suffix, factor in _UNIT_FACTORS.items():
        if name.endswith(suffix):
            return factor
    return 1.0


def _read_xy(path: str):
    """Rows of (x, y[, sigma]) from a CSV, comments and header honored.

    A third column must be headed sigma, or the file have no header; a
    fourth column and a row wider or narrower than the header (or the
    first row) are refused."""
    header: Optional[list] = None
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                try:
                    float(cells[0])
                except ValueError:
                    header = cells
                    continue
                header = []
            width = len(header or (rows[0] if rows else cells))
            if len(cells) != width:
                raise ValueError("data row %d of %s has %d columns, not %d"
                                 % (len(rows) + 1, path, len(cells), width))
            rows.append([float(c) for c in cells])
    if len(rows) == 0:
        raise ValueError("no data rows in %s" % path)
    if width < 2:
        raise ValueError("need at least x and y columns in %s" % path)
    if header and width > 2 and header[2] != "sigma":
        raise ValueError("column 3 %r of %s is not sigma: fit reads x, y and"
                         " an optional sigma column" % (header[2], path))
    if width > 3:
        raise ValueError("column 4 of %s: fit reads x, y and an optional"
                         " sigma column" % path)
    x_factor = _column_factor(header[0]) if header else 1.0
    return [(r[0] * x_factor,) + tuple(r[1:]) for r in rows]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibermem",
        description="nanofiber optical-memory simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="run a scenario and write its CSV")
    sim.add_argument("scenario", help="scenario id, see the list command")
    sim.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override one config key, repeatable",
    )
    sim.add_argument("--out", default=None, help="output CSV path")
    sim.add_argument("--seed", type=int, default=0, help="counting RNG seed")
    sim.add_argument("--config", default=None, help="INI file overlaying defaults")

    fit_p = sub.add_parser("fit", help="fit a registered model to CSV data")
    fit_p.add_argument("model", help="model id: %s" % ", ".join(sorted(MODELS)))
    fit_p.add_argument("--data", required=True, help="CSV with x,y[,sigma] columns")
    fit_p.add_argument(
        "--guess", default=None, help="comma-separated starting parameters"
    )
    fit_p.add_argument(
        "--frozen", default=None, help="comma-separated parameter names to pin"
    )

    sub.add_parser("list", help="show the scenario catalog")
    return parser


def _cmd_list() -> int:
    for entry in list_scenarios():
        print("%s" % entry.scenario_id)
        print("  %s" % entry.description)
        if entry.headline:
            print("  headline: %s" % entry.headline)
        for key, doc in entry.parameter_docs:
            print("    %-28s %s" % (key, doc))
    return 0


def _format_summary_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return ", ".join("%.6g" % v for v in value)
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def _cmd_sim(args) -> int:
    config = load_config(args.config)
    apply_overrides(config, args.overrides)
    report = run_scenario(args.scenario, config, args.seed, args.out)
    print(
        "wrote %s (%d rows, config %s, seed %d)"
        % (
            report["output_path"],
            report["n_rows"],
            report["config_digest"],
            args.seed,
        )
    )
    for key in sorted(report["summary"]):
        print("  %-28s %s" % (key, _format_summary_value(report["summary"][key])))
    return 0


def _cmd_fit(args) -> int:
    data = _read_xy(args.data)
    guess = None
    if args.guess is not None:
        guess = [float(tok) for tok in args.guess.split(",") if tok.strip()]
    frozen = frozenset(
        tok.strip() for tok in (args.frozen or "").split(",") if tok.strip()
    )
    result = fit(args.model, data, guess, frozen)
    print(format_result(result))
    return 0 if result.converged else 4


def entry(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize --help to success
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "sim":
            return _cmd_sim(args)
        return _cmd_fit(args)
    except _SOLVER_ERRORS as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
