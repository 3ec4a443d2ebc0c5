"""Command line front end.

Three subcommands:

    sim <scenario> [--set key=value]... [--out path] [--seed n] [--config file]
    fit <model> --data file.csv [--guess a,b,...] [--frozen name,...]
    list

Exit codes: 0 success, 2 usage or validation error, 3 solver failure,
4 fit did not converge or identifies no parameter.  Quantities cross the command line in lab units
(MHz, ns, us, nW, mW, Gauss); unit suffixes on CSV column headers are
converted to SI before fitting.  Randomness is confined to the seeded
counting generator (NumPy PCG64 via default_rng), so repeating a
command reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .config import apply_overrides, domain_text, load_config
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
    NoGuidedModeError,
    EmptyScanError,
    FloatingPointError,
)


def _read_xy(path: str) -> np.ndarray:
    """(n, 2) or (n, 3) array of x, y[, sigma] from a CSV, x in SI units.

    Comment (#) and empty lines are skipped and a header is optional; its
    first column's unit suffix scales x.  A third column must be headed
    sigma, or the file have no header; a fourth column and a row wider or
    narrower than the header (or the first row) are refused."""
    with open(path) as fh:
        header = None
        while True:  # to the first data line
            start = fh.tell()
            line = fh.readline()
            if not line:
                raise ValueError("no data rows in %s" % path)
            cells = [c.strip() for c in line.split("#", 1)[0].split(",")]
            if cells == [""]:
                continue
            if header is None:
                try:
                    float(cells[0])
                except ValueError:
                    header = cells
                    continue
            break
        width = len(header or cells)
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
            if data.shape[1] != width:
                raise ValueError  # every row disagrees with the header
        except ValueError:
            # name the first ragged or non-numeric data row, counted from 1
            fh.seek(start)
            rows = (raw.split("#", 1)[0].rstrip("\n") for raw in fh)
            for row, text in enumerate(filter(None, rows), 1):
                cells = text.split(",")
                if len(cells) != width:
                    raise ValueError("data row %d of %s has %d columns, not %d"
                                     % (row, path, len(cells), width)) from None
                for col, cell in enumerate(cells, 1):
                    try:  # loadtxt reads float()'s syntax less "_" and non-ASCII
                        float(cell if cell.isascii() and "_" not in cell else "?")
                    except ValueError:
                        raise ValueError(
                            "%r in data row %d, column %d of %s is not a number"
                            % (cell.strip(), row, col, path)) from None
            raise
    if width < 2:
        raise ValueError("need at least x and y columns in %s" % path)
    if header and width > 2 and header[2] != "sigma":
        raise ValueError("column 3 %r of %s is not sigma: fit reads x, y and"
                         " an optional sigma column" % (header[2], path))
    if width > 3:
        raise ValueError("column 4 of %s: fit reads x, y and an optional"
                         " sigma column" % path)
    if header:  # the x unit is the header text from its last underscore on
        data[:, 0] *= _UNIT_FACTORS.get(header[0][header[0].rfind("_"):], 1.0)
    return data


@functools.cache  # one parser per process: parse_args leaves it unchanged
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
            domain = domain_text(key)
            print("    %-28s %s%s" % (key, doc, domain and " [%s]" % domain))
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
        try:
            guess = [float(tok) for tok in args.guess.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError("--guess %r: %s" % (args.guess, exc)) from None
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
