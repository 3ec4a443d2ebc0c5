"""Command line front end.

    fibermem sim SCENARIO [--set KEY=VALUE]... [--out PATH] [--seed N] [--config FILE]
    fibermem fit MODEL --data FILE [--guess A,B,...] [--frozen NAME,...]
    fibermem list

Flags and the operand come in any order; a flag is spelled in full and
takes its value as the next word or after '=' (--out=x.csv); --set
repeats, every other flag keeps its last value; -h or --help prints the
usage.  Exit codes: 0 success, 2 usage or validation error, 3 solver
failure, 4 fit did not converge or identifies no parameter.  Quantities
cross the command line in lab units (MHz, ns, us, nW, mW, Gauss); unit
suffixes on CSV column headers are converted to SI before fitting.
Randomness is confined to the seeded counting generator (NumPy PCG64 via
default_rng), so repeating a command reproduces its output byte for byte.
"""

from __future__ import annotations

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


# each command's operand and its flags with their defaults; --set collects
# its values, every other flag keeps its last
_COMMANDS = {
    "sim": ("SCENARIO", {"--set": (), "--out": None, "--seed": 0, "--config": None}),
    "fit": ("MODEL", {"--data": None, "--guess": None, "--frozen": None}),
    "list": (None, {}),
}

_USAGE = """\
usage: fibermem sim SCENARIO [--set KEY=VALUE]... [--out PATH] [--seed N] [--config FILE]
       fibermem fit MODEL --data FILE [--guess A,B,...] [--frozen NAME,...]
       fibermem list
"""

_HELP = _USAGE + """
SCENARIO is an id that fibermem list shows with its config keys; MODEL is
one of %s.
sim writes the scenario's CSV: --set overrides one config key and repeats,
--config overlays an INI file and --seed seeds the photon counting.  fit
fits the x,y[,sigma] columns of a CSV from the comma-separated --guess
values, with the --frozen parameters pinned.  Flags are spelled in full
and take their value as the next word or after '='.
""" % ", ".join(sorted(MODELS))


def _parse(argv):
    """command, operand and {flag: value} of a command line; a ValueError
    names the word or flag that does not fit the usage."""
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError("unknown command %r" % argv[0] if argv else "no command")
    command, words = argv[0], iter(argv[1:])
    operand_name, defaults = _COMMANDS[command]
    opts, operands = dict(defaults), []
    for word in words:
        if not word.startswith("-"):
            operands.append(word)
            continue
        flag, eq, value = word.partition("=")
        if flag not in opts:
            raise ValueError("unknown flag %r for %s" % (flag, command))
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("--"):
                raise ValueError("%s needs a value" % flag)
        if flag == "--seed":
            try:
                value = int(value)
            except ValueError:
                raise ValueError("--seed %r is not an integer" % value) from None
        opts[flag] = opts[flag] + (value,) if flag == "--set" else value
    extra = operands[1:] if operand_name else operands
    if extra:
        raise ValueError("unexpected operand %r" % extra[0])
    if operand_name and not operands:
        raise ValueError("%s needs a %s" % (command, operand_name))
    if command == "fit" and opts["--data"] is None:
        raise ValueError("fit needs --data")
    return command, operands[0] if operands else None, opts


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


def _cmd_sim(scenario, opts) -> int:
    config = load_config(opts["--config"])
    apply_overrides(config, opts["--set"])
    report = run_scenario(scenario, config, opts["--seed"], opts["--out"])
    print("wrote %s (%d rows, config %s, seed %d)" % (
        report["output_path"], report["n_rows"], report["config_digest"], opts["--seed"]))
    for key in sorted(report["summary"]):
        print("  %-28s %s" % (key, _format_summary_value(report["summary"][key])))
    return 0


def _cmd_fit(model, opts) -> int:
    data = _read_xy(opts["--data"])
    guess = None
    if opts["--guess"] is not None:
        try:
            guess = [float(tok) for tok in opts["--guess"].split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError("--guess %r: %s" % (opts["--guess"], exc)) from None
    frozen = frozenset(
        tok.strip() for tok in (opts["--frozen"] or "").split(",") if tok.strip()
    )
    result = fit(model, data, guess, frozen)
    print(format_result(result))
    return 0 if result.converged else 4


def entry(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(_HELP, end="")
        return 0
    try:
        command, operand, opts = _parse(argv)
    except ValueError as exc:
        print("%sfibermem: error: %s" % (_USAGE, exc), file=sys.stderr)
        return 2
    try:
        if command == "list":
            return _cmd_list()
        if command == "sim":
            return _cmd_sim(operand, opts)
        return _cmd_fit(operand, opts)
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
