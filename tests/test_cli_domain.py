"""A standing fuzz of the command line's input domain.

Each case runs one twopatch command in process (cli.main) on a small base
config with one to three keys set to extreme values: 0, tiny and subnormal
numbers, 1e+-30, 1e+-300, the float maximum, inf, nan and huge integers.
Whatever the values, the command returns 0, 1 or 2; a nonzero return prints
an "error:" or "numerical failure:" line; and every number an exit-0 run
writes reads back finite, except the documented nan columns: rbar of an
empty habitat, N_total_ibm_mean with phase_ibm = false, and phase.csv's
error rows. pytest turns a RuntimeWarning that escapes into an error.

Only keys whose values bound no work are drawn: N0, T, replicates,
sweep_steps, rungs and threads keep the small base values, so no draw
starts many processes or allocates without bound. FOUND lists inputs that
once escaped; each runs every time. The tier-1 draw takes about 5 s, and
the slow tier draws more.
"""

import csv
import math
import random
import sys

import pytest

from twopatch import cli

MAX = repr(sys.float_info.max)
BASE = {"n": "1", "N0": "20", "T": "10", "replicates": "2", "cap": "100000",
        "sweep_steps": "2, 2", "t_end": "5", "threads": "1"}
FLOATS = ("0.0", "-0.0", "5e-324", "-5e-324", "1e-310", "2.2250738585072014e-308", "1e-30",
          "-1e-30", "1e30", "-1e30", "1e-300", "1e300", "-1e300", MAX, "-" + MAX, "inf",
          "-inf", "nan")
INTS = ("0", "-1", str(2 ** 63 + 1), str(-2 ** 63), str(10 ** 30 + 1))
FLOAT_KEYS = ("mu", "rmax1", "rmax2", "m_D", "delta", "d11", "d12", "d21", "d22", "L", "t_end",
              "record_every", "initial_mass", "h_target", "tol_domain", "U", "threshold_tol")
PAIR_KEYS = ("sweep_min", "sweep_max")
INT_KEYS = ("n", "m", "seed", "cap")
CHOICES = {"migration": ("general",), "initial": ("spread",), "growth": ("logistic",),
           "threshold_param": ("m_D", "mu", "rmax"), "phase_ibm": ("false",),
           "richardson": ("false",)}
KEYS = FLOAT_KEYS + PAIR_KEYS + INT_KEYS + tuple(CHOICES)
COMMANDS = ("solve", "eigen", "ibm", "phase", "threshold")

# Inputs that escaped as a traceback, a warning or non-finite output before
# they were mended.
FOUND = [
    ("phase", {"mu": "1e200", "phase_ibm": "false"}),
    ("phase", {"mu": "1e-20", "phase_ibm": "false"}),
    ("solve", {"initial_mass": MAX, "t_end": "0"}),
    ("solve", {"initial_mass": MAX, "initial": "spread"}),
    ("solve", {"L": "1e308"}),
    ("solve", {"L": "1e308", "m": "5"}),
    ("eigen", {"L": "1e-300", "m": "5"}),
    ("phase", {"mu": "1e250", "phase_ibm": "false"}),
    ("phase", {"mu": MAX, "phase_ibm": "false"}),
    ("eigen", {"mu": MAX}),
    ("eigen", {"h_target": "5e-324"}),
    ("eigen", {"delta": MAX}),
    ("eigen", {"migration": "general", "rmax1": MAX}),
    ("eigen", {"rmax2": "-1e300"}),
    ("solve", {"mu": "2.2250738585072014e-308"}),
    ("ibm", {"U": "1e30"}),
    ("ibm", {"m_D": MAX}),
    ("ibm", {"rmax1": "1e30", "rmax2": "1e30"}),
]


def draw(rng):
    """One command and one to three of KEYS set to extreme values."""
    keys = {}
    for key in rng.sample(KEYS, rng.randint(1, 3)):
        if key in FLOAT_KEYS:
            keys[key] = rng.choice(FLOATS)
        elif key in PAIR_KEYS:
            keys[key] = f"{rng.choice(FLOATS)}, {rng.choice(FLOATS)}"
        elif key in INT_KEYS:
            keys[key] = rng.choice(INTS)
        else:
            keys[key] = rng.choice(CHOICES[key])
    return rng.choice(COMMANDS), keys


def draws(seed, count):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(count)]


def number(text):
    try:
        return float(text)
    except ValueError:
        return None  # a text column: parameter, classification, error


def nan_allowed(name, row, phase_ibm):
    """The columns of row in file name that may read nan (or inf)."""
    if name == "trajectory.csv":  # rbar of an empty habitat
        return {f"rbar{i}" for i in (1, 2) if float(row[f"N{i}"]) <= 0}
    if name == "phase.csv" and row["classification"] == "error":
        return {"lambda", "N_total_pde", "N_total_ibm_mean"}
    if name == "phase.csv" and not phase_ibm:
        return {"N_total_ibm_mean"}
    return set()


def assert_outputs_finite(out, phase_ibm):
    files = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".txt"))
    assert files
    for path in files:
        with open(path) as fh:
            lines = fh.read().splitlines()
        for line in lines:
            if line.startswith("# lambda="):
                assert math.isfinite(float(line.split("=", 1)[1])), (path.name, line)
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        assert rows, path.name
        for row in rows:
            allowed = nan_allowed(path.name, row, phase_ibm)
            for column, text in row.items():
                value = number(text)
                if value is not None and column not in allowed:
                    assert math.isfinite(value), (path.name, column, row)


def run_case(tmp_path, capsys, command, keys):
    config = {**BASE, **keys}
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (command, keys, code)
    if code:
        assert err.startswith(("error:", "numerical failure:")), (command, keys, err)
    else:
        assert_outputs_finite(out, config.get("phase_ibm", "true") == "true")


@pytest.mark.parametrize("command, keys", FOUND, ids=[f"found{k}" for k in range(len(FOUND))])
def test_found_inputs_keep_the_contract(tmp_path, capsys, command, keys):
    run_case(tmp_path, capsys, command, keys)


@pytest.mark.parametrize("command, keys", draws(0, 500), ids=[f"draw{k}" for k in range(500)])
def test_drawn_inputs_keep_the_contract(tmp_path, capsys, command, keys):
    run_case(tmp_path, capsys, command, keys)


@pytest.mark.slow
@pytest.mark.parametrize("command, keys", draws(1, 1000), ids=[f"draw{k}" for k in range(1000)])
def test_larger_draw_keeps_the_contract(tmp_path, capsys, command, keys):
    run_case(tmp_path, capsys, command, keys)
