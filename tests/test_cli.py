import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from twopatch import cli, hermite, ibm, pde, thresholds
from twopatch.cli import ExperimentConfig, emit_config, parse_config


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = lines[0]
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln for ln in lines[1:] if ln.startswith("#")]
    return header, data, footer


# ---------------------------------------------------------------- config


def test_default_config_round_trips():
    c = ExperimentConfig()
    assert parse_config(emit_config(c)) == c


def test_non_default_config_round_trips():
    c = ExperimentConfig(
        n=1, mu=1.0 / 3.0, rmax1=0.2, rmax2=0.2, m_D=0.125, delta=0.07,
        migration="general", d11=0.1, d12=0.3, d21=0.0, d22=0.25,
        L=3.5, m=129, t_end=12.5, record_every=0.25,
        initial="spread", initial_mass=123.456,
        h_target=0.05, rungs=3, richardson=False,
        U=0.25, N0=77, T=12, replicates=3,
        sweep_min=(0.01, 0.125), sweep_max=(0.09, 0.875), sweep_steps=(3, 4),
        phase_ibm=False, threshold_param="rmax", seed=42, threads=3, out_dir="runs")
    text = emit_config(c)
    assert parse_config(text) == c
    # floats survive with full precision (repr emit, float parse)
    assert parse_config(text).mu == 1.0 / 3.0


@pytest.mark.parametrize("field, value", [
    ("out_dir", "runs#1"), ("out_dir", " lead"), ("out_dir", "trail\t"),
    ("out_dir", "two\nlines"), ("out_dir", "two\u2028lines"), ("threshold_param", "delta # x"),
], ids=["hash", "leading_space", "trailing_tab", "newline", "line_separator", "comment"])
def test_emit_config_refuses_a_str_that_would_not_read_back(field, value):
    # parse_config strips comments and whitespace and splits lines, so these
    # would read back as other values
    with pytest.raises(cli.ConfigError, match=f"{field} = {re.escape(repr(value))}"):
        emit_config(dataclasses.replace(ExperimentConfig(), **{field: value}))
    # a '=' or inner spaces read back as written
    c = ExperimentConfig(out_dir="runs = 1/a b")
    assert parse_config(emit_config(c)) == c


def test_readme_example_config_parses():
    # the README's exp.cfg block names only keys that exist, at their defaults
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(# exp\.cfg\n.*?)```", readme, re.S)
    assert block is not None
    assert parse_config(block.group(1)) == ExperimentConfig()


def test_parse_accepts_comments_and_blank_lines():
    c = parse_config("""
# full-line comment
n = 1   # trailing comment
mu = 0.1

t_end = 5.0
""")
    assert c.n == 1 and c.mu == 0.1 and c.t_end == 5.0
    assert c.rmax1 == ExperimentConfig().rmax1  # untouched default


def test_parse_collects_all_errors_with_line_numbers():
    bad = "n = 2\nbogus = 1\nmu = 0.1\nmu = 0.2\ndelta = fast\nt_end\n"
    with pytest.raises(cli.ConfigError) as exc:
        parse_config(bad)
    msg = str(exc.value)
    assert "line 2: unknown key 'bogus'" in msg
    assert "line 4: duplicate key 'mu'" in msg
    assert "line 5: bad value for 'delta'" in msg
    assert "line 6: expected 'key = value'" in msg


def test_validate_collects_all_errors():
    c = ExperimentConfig(migration="teleport", initial="everywhere", threads=0,
                         sweep_steps=(1, 6), m=10, seed=-1)
    with pytest.raises(cli.ConfigError) as exc:
        cli.validate_config(c)
    msg = str(exc.value)
    for fragment in ("migration must be", "initial must be", "threads must be",
                     "sweep_steps entries must be", "m must be odd", "seed must be >= 0"):
        assert fragment in msg


def test_optional_fields_accept_auto_and_none():
    c = parse_config("L = auto\nm = none\nh_target = 0.5\n")
    assert c.L is None and c.m is None and c.h_target == 0.5


def test_fmt_writes_at_least_12_significant_digits():
    assert cli._fmt(1.0 / 3.0) == "0.333333333333333"
    assert cli._fmt(1.0 / 1800.0) == "0.000555555555555556"
    assert cli._fmt(12345.0) == "12345"


# ---------------------------------------------------------------- solve


def quick_solve_config(**overrides):
    base = dict(n=1, mu=0.1, m_D=0.5, delta=0.05, L=4.0, m=65,
                t_end=2.0, record_every=0.5, initial_mass=100.0)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_cmd_solve_outputs(tmp_path):
    written = cli.cmd_solve(quick_solve_config(), str(tmp_path))
    header, data, _ = read_csv(written["trajectory"])
    assert header == "t,N1,N2,rbar1,rbar2"
    assert len(data) == 5  # t = 0, 0.5, ..., 2.0
    first = data[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(100.0, rel=1e-9)  # initial_mass per habitat

    with open(written["final_state"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# n=1 L=4 m=65 h=0.125"
    assert lines[1] == "# t=2 extinct=False"
    assert lines[2] == "x1,u1,u2"
    assert len(lines) == 3 + 65

    # mirror-symmetric setup: the two habitats stay statistically identical
    rows = np.array([[float(v) for v in ln.split(",")] for ln in data])
    np.testing.assert_allclose(rows[:, 1], rows[:, 2], rtol=1e-9)


def test_cmd_solve_three_traits_expands_final_state(tmp_path):
    written = cli.cmd_solve(quick_solve_config(n=3, L=2.0, m=9, t_end=1.0), str(tmp_path))
    with open(written["final_state"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# n=3 L=2 m=9 h=0.5"
    assert lines[2] == "x1,x2,x3,u1,u2"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[3:]])
    assert rows.shape == (9 ** 3, 5)
    # x1 varies slowest, x3 fastest
    np.testing.assert_array_equal(rows[0, :3], [-2.0, -2.0, -2.0])
    np.testing.assert_array_equal(rows[1, :3], [-2.0, -2.0, -1.5])
    np.testing.assert_array_equal(rows[9, :3], [-2.0, -1.5, -2.0])
    np.testing.assert_array_equal(rows[81, :3], [-1.5, -2.0, -2.0])
    # the density is the x1 profile times N(0, mu) in each transverse trait
    mu = 0.1
    phi = np.exp(-0.5 * (rows[:, 1] ** 2 + rows[:, 2] ** 2) / mu) / (2.0 * math.pi * mu)
    on_axis = (rows[:, 1] == 0.0) & (rows[:, 2] == 0.0)
    profile = rows[on_axis, 3] * (2.0 * math.pi * mu)
    np.testing.assert_allclose(rows[:, 3], np.repeat(profile, 81) * phi, rtol=1e-12, atol=0)


def test_cmd_solve_rejects_final_state_above_row_budget(tmp_path, capsys):
    # 9^8 = 43,046,721 rows is above the 2^22 budget: refused before the
    # solve, with nothing written
    with pytest.raises(cli.ConfigError, match=r"9\^8 = 43046721 rows.*smaller m"):
        cli.cmd_solve(quick_solve_config(n=8, L=2.0, m=9), str(tmp_path))
    assert list(tmp_path.iterdir()) == []
    path = write_config(tmp_path, "n = 4\nL = 2.0\nm = 47\n")  # 47^4 = 4,879,681
    out_dir = tmp_path / "results"
    assert cli.main(["solve", "--config", path, "--out", str(out_dir)]) == 1
    assert "smaller m" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_cmd_solve_rewrite_is_bit_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    cfg = quick_solve_config()
    cli.cmd_solve(cfg, str(a))
    cli.cmd_solve(cfg, str(b))
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "final_state.txt").read_bytes() == (b / "final_state.txt").read_bytes()


SAMPLE = pde.FinalState.sample  # unpatched, for signed_zero_sample


def savetxt_outputs(cfg):
    """The solve's trajectory and final_state.txt as np.savetxt wrote it over the
    np.indices of all m^n nodes: the reference for cmd_solve's writers."""
    params = cli.to_model_params(cfg)
    grid = cli.grid_for(cfg, params)
    traj, final = cli.integrate_to(params, cli.initial_state(cfg, params), cli.solver_config(cfg))
    u1, u2 = final.sample(grid.axis())
    buf = io.StringIO()
    buf.write(f"# n={grid.n} L={cli._fmt(grid.L)} m={grid.m} h={cli._fmt(grid.h)}\n")
    buf.write(f"# t={cli._fmt(traj.t[-1])} extinct={traj.extinct}\n")
    buf.write(",".join(f"x{k + 1}" for k in range(grid.n)) + ",u1,u2\n")
    ax = grid.axis()
    idx = np.indices((grid.m,) * grid.n).reshape(grid.n, -1).T
    phi = np.exp(-0.5 * ax * ax / params.mu) / math.sqrt(2.0 * math.pi * params.mu)
    transverse = np.prod(phi[idx[:, 1:]], axis=1)
    np.savetxt(buf, np.column_stack([ax[idx], u1[idx[:, 0]] * transverse,
                                     u2[idx[:, 0]] * transverse]),
               fmt="%.15g", delimiter=",")
    return traj, buf.getvalue()


def signed_zero_sample(final, x):
    """FinalState.sample with 0.0 in u1 and -0.0 at its mirrored node in u2,
    and one value of u1 repeated at another node of u2: a writer that caches
    formatted values by float equality prints one zero for both."""
    u1, u2 = SAMPLE(final, x)
    k = u1.size // 4
    u1[k], u2[-1 - k] = 0.0, -0.0
    u2[k] = u1[u1.size // 2]
    return u1, u2


@pytest.mark.parametrize("overrides, sampler", [
    (dict(), None),
    (dict(n=2, L=3.0, m=25), None),
    (dict(n=3, L=2.0, m=9, t_end=1.0), None),
    # extinct, and N(0, mu) underflows at the box edge: those densities print as 0
    (dict(n=2, mu=0.005, L=4.0, m=33, rmax1=-1.0, rmax2=-1.0, t_end=60.0), None),
    # u2 is not u1 reversed
    (dict(n=2, L=3.0, m=25, migration="general", d11=0.05, d12=0.05, d21=0.02, d22=0.02), None),
    (dict(n=2, L=3.0, m=25), signed_zero_sample),
    # the criterion-7 logistic run: a mirror run, so N2 repeats N1 bitwise
    (dict(mu=ExperimentConfig().mu, L=4.0, m=129, t_end=50.0, record_every=0.125,
          initial_mass=1.0, growth="logistic"), None),
    # the last record interval is shorter than record_every
    (dict(n=2, L=3.0, m=25, t_end=2.3, record_every=0.5), None),
], ids=["n1", "n2", "n3", "extinct", "general_n2", "signed_zero", "logistic_n1",
        "record_every_remainder"])
def test_cmd_solve_outputs_match_savetxt_byte_for_byte(tmp_path, monkeypatch, overrides,
                                                       sampler):
    if sampler is not None:
        monkeypatch.setattr(pde.FinalState, "sample", sampler)
    cfg = quick_solve_config(**overrides)
    traj, want = savetxt_outputs(cfg)
    cli.cmd_solve(cfg, str(tmp_path))
    assert (tmp_path / "final_state.txt").read_text() == want
    cli._write_csv(str(tmp_path / "want.csv"), "t,N1,N2,rbar1,rbar2",
                   zip(traj.t, traj.N1, traj.N2, traj.rbar1, traj.rbar2))
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    if overrides.get("rmax1") == -1.0:
        assert traj.extinct
        assert ",0,0\n" in want
    if sampler is not None:  # u1 prints a 0 and u2 a -0
        assert re.search(r",0,[^,\n]+\n", want) and ",-0\n" in want
    if overrides.get("growth") == "logistic":
        assert np.array_equal(traj.N1, traj.N2) and np.array_equal(traj.rbar1, traj.rbar2)
    if overrides.get("t_end") == 2.3:
        assert traj.t[-2:].tolist() == [2.0, 2.3]


def test_solve_outcome_does_not_depend_on_the_sampling_grid(tmp_path, monkeypatch):
    # at mu = 2e-3, m_D = 1 the state at the extinction record is 1e-12 of
    # its start; the positivity check runs at nodes fixed by the basis, so
    # m = 9, whose nodes miss most of the state, solves as the others do,
    # with the same trajectory
    trajectories = []
    inner = cli.integrate_to

    def spy(*args):
        traj, final = inner(*args)
        trajectories.append(traj)
        return traj, final

    monkeypatch.setattr(cli, "integrate_to", spy)
    for m in (9, 33, 129):
        for m_D in (0.5, 1.0):
            cli.cmd_solve(ExperimentConfig(mu=2e-3, m_D=m_D, m=m), str(tmp_path))
    assert trajectories[1].extinct and not trajectories[0].extinct
    for k, traj in enumerate(trajectories[2:], start=2):
        for name in ("t", "N1", "N2", "rbar1", "rbar2", "extinct"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(trajectories[k % 2], name))


def test_float_csv_matches_write_csv(tmp_path):
    cols = [np.array([0.0, -0.0, math.nan, 1.0 / 3.0]),
            np.array([1e-300, -math.inf, 12345.0, 2.0 ** 60]),
            np.array([math.nan, 1.0 / 1800.0, -1e16, 5e-324])]
    for extra, tail in (
        ([], ""),
        # bitwise-equal columns: formatted once, printed twice
        ([cols[0], cols[0].copy()], ",-0,-0"),
        # equal but not bitwise equal: 0.0 and -0.0 print apart
        ([np.zeros(4), -np.zeros(4)], ",0,-0"),
    ):
        header = ",".join("pqrst"[:len(cols + extra)])
        cli._write_float_csv(str(tmp_path / "a.csv"), header, cols + extra)
        cli._write_csv(str(tmp_path / "b.csv"), header, zip(*(cols + extra)))
        text = (tmp_path / "a.csv").read_text()
        assert text == (tmp_path / "b.csv").read_text()
        assert text.splitlines()[2] == "-0,-inf,0.000555555555555556" + tail


@pytest.mark.parametrize("mass", [1e-200, 1e200, 1e308])
def test_solve_is_scale_free_in_the_initial_mass(tmp_path, mass):
    # the data's decay and Parseval checks and the final state's height run on
    # scaled coefficients: no mass float64 carries is too large or too small.
    # At 1e308 the power of two above the mass, the sum of the mirror halves
    # and the extinction floor (of three bumps' masses) each overflowed.
    for initial in ("origin", "spread"):
        trajectories = {}
        for m in (1.0, mass):
            path = write_config(tmp_path, f"initial = {initial}\ninitial_mass = {m!r}\nm = 65\n")
            out_dir = tmp_path / f"{initial}_{m!r}"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(["solve", "--config", path, "--out", str(out_dir)]) == 0
            trajectories[m] = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1)
        one, scaled = trajectories[1.0], trajectories[mass]
        assert scaled.shape == one.shape, initial
        np.testing.assert_allclose(scaled[:, 1:3] / mass, one[:, 1:3], rtol=1e-12, atol=0)
        np.testing.assert_allclose(scaled[:, 3:], one[:, 3:], rtol=1e-12)


@pytest.mark.parametrize("initial", ["origin", "spread"])
def test_solve_at_the_largest_float_mass_finishes_or_exits_with_a_message(tmp_path, capsys,
                                                                          initial):
    # a coefficient past float64 is a request the solve cannot take: exit 1
    # or 2 with its line, never a traceback or an escaping RuntimeWarning
    path = write_config(tmp_path, f"initial = {initial}\n"
                                  f"initial_mass = {sys.float_info.max!r}\nm = 65\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 0 or (code in (1, 2) and err.startswith(("error:", "numerical failure:"))), (
        code, err)


def test_solve_at_the_largest_float_mass_writes_only_fields_that_read_back_finite(tmp_path):
    # "%.15g" rounds 1.7976931348623157e308 up to 1.79769313486232e+308, which
    # float() reads as inf: trajectory.csv's first N1 and N2 did
    path = write_config(tmp_path, f"initial = spread\n"
                                  f"initial_mass = {sys.float_info.max!r}\nm = 65\nt_end = 2\n")
    out_dir = tmp_path / "out"
    assert cli.main(["solve", "--config", path, "--out", str(out_dir)]) == 0
    texts = []
    for name in ("trajectory.csv", "final_state.txt"):
        lines = (out_dir / name).read_text().splitlines()
        header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        texts += [f for line in lines[header + 1:] for f in line.split(",")]
        texts += re.findall(r"[=]([-+.0-9e]+)", " ".join(lines[:header]))
    values = [float(t) for t in texts]
    assert all(math.isfinite(v) for v in values)
    assert max(values) >= 1.797693134862315e308  # the data reached the overflowing range


def test_cmd_solve_zero_horizon_records_initial_row(tmp_path):
    cli.cmd_solve(quick_solve_config(t_end=0.0), str(tmp_path))
    _, data, _ = read_csv(str(tmp_path / "trajectory.csv"))
    assert len(data) == 1
    assert float(data[0].split(",")[0]) == 0.0


# ---------------------------------------------------------------- eigen


def test_cmd_eigen_closed_form_and_ladder(tmp_path):
    cfg = ExperimentConfig(n=1, mu=0.1, m_D=0.0, delta=0.05)
    written = cli.cmd_eigen(cfg, str(tmp_path))
    header, data, footer = read_csv(written["eigen"])
    assert header == "L,m,lambda_L,residual"
    lams = [float(ln.split(",")[2]) for ln in data]
    ladder = lams[:-1]  # the last row is the spacing-refinement solve
    assert all(b <= a + 1e-6 for a, b in zip(ladder, ladder[1:]))
    assert len(footer) == 1 and footer[0].startswith("# lambda=")
    lam = float(footer[0].split("=")[1])
    assert lam == pytest.approx(-1.0 / 18.0 + 0.05, abs=1e-3)


def test_cmd_eigen_three_traits_adds_transverse_load(tmp_path):
    # same ladder at n = 1 and n = 3; lambda moves by exactly (n - 1) mu / 2
    lams, ladders = {}, {}
    for n in (1, 3):
        out = tmp_path / f"n{n}"
        out.mkdir()
        cli.cmd_eigen(ExperimentConfig(n=n, mu=0.1, m_D=0.5, delta=0.05, h_target=0.25),
                      str(out))
        _, data, footer = read_csv(str(out / "eigen.csv"))
        lams[n] = float(footer[0].split("=")[1])
        ladders[n] = [ln.split(",")[:2] for ln in data]
    assert ladders[3] == ladders[1]
    assert lams[3] == pytest.approx(lams[1] + 0.1, abs=1e-12)


def test_cmd_eigen_explicit_grid_single_solve(tmp_path):
    cfg = ExperimentConfig(n=1, mu=0.1, m_D=0.5, delta=0.05, L=4.0, m=129,
                           richardson=False)
    written = cli.cmd_eigen(cfg, str(tmp_path))
    _, data, footer = read_csv(written["eigen"])
    assert len(data) == 1
    row = data[0].split(",")
    assert float(row[0]) == 4.0 and int(row[1]) == 129
    assert float(footer[0].split("=")[1]) == float(row[2])


# ---------------------------------------------------------------- ibm


def quick_ibm_config(**overrides):
    base = dict(n=1, mu=0.1, m_D=0.5, delta=0.05, N0=30, T=5, replicates=2)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_cmd_ibm_outputs_and_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    cfg = quick_ibm_config()
    written = cli.cmd_ibm(cfg, str(a))
    header, data, _ = read_csv(written["ibm"])
    assert header == "replicate,t,N1,N2"
    assert len(data) == 2 * 6  # replicates x (T + 1)
    mean_header, mean_data, _ = read_csv(written["ibm_mean"])
    assert mean_header == "t,N_total_mean"
    assert len(mean_data) == 6
    assert float(mean_data[0].split(",")[1]) == 2 * cfg.N0

    cli.cmd_ibm(cfg, str(b))
    assert (a / "ibm.csv").read_bytes() == (b / "ibm.csv").read_bytes()
    cli.cmd_ibm(quick_ibm_config(seed=1), str(c))
    assert (a / "ibm.csv").read_bytes() != (c / "ibm.csv").read_bytes()


def test_cmd_ibm_matches_write_csv(tmp_path):
    # the float writer prints the replicate index as str does (below 2^53)
    cfg = quick_ibm_config(replicates=12)
    cli.cmd_ibm(cfg, str(tmp_path))
    summary = cli.run_replicates(cli.ibm_params(cfg, cli.to_model_params(cfg)),
                                 [[cfg.seed, k] for k in range(cfg.replicates)])
    cli._write_csv(str(tmp_path / "want.csv"), "replicate,t,N1,N2",
                   [(rep, t, n1, n2) for rep, tr in enumerate(summary.trajectories)
                    for t, n1, n2 in zip(tr.t, tr.N1, tr.N2)])
    cli._write_csv(str(tmp_path / "want_mean.csv"), "t,N_total_mean",
                   zip(summary.t, summary.n_total_mean))
    assert (tmp_path / "ibm.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "ibm_mean.csv").read_bytes() == (tmp_path / "want_mean.csv").read_bytes()


# sha256 of the files cmd_ibm(quick_ibm_config()) writes. Its mu = 0.1 makes
# lambda_var = mu^2 / U = 0.06 inexact in float64, so these pin the IBM
# stream of a non-default mu bit for bit.
_QUICK_IBM_DIGESTS = {
    "ibm": "20407bcb02e8537e2937efe7ea574e8bcf25b9cf09e5f8f164caec40aa7920e5",
    "ibm_mean": "8bcbc98ce1321cb07fabd0334c867fff2d7e03b9e262998b297d499fd430b22d",
}


def test_cmd_ibm_output_is_pinned(tmp_path):
    written = cli.cmd_ibm(quick_ibm_config(), str(tmp_path))
    got = {kind: hashlib.sha256(pathlib.Path(written[kind]).read_bytes()).hexdigest()
           for kind in _QUICK_IBM_DIGESTS}
    assert got == _QUICK_IBM_DIGESTS


def test_ibm_params_requires_mirror_peaks():
    # IbmParams owns the IBM's domain; cli.ibm_params only builds one
    cfg = quick_ibm_config(rmax1=0.1, rmax2=0.2)
    with pytest.raises(ValueError, match="rmax1 == rmax2"):
        ibm.IbmParams(model=cli.to_model_params(cfg), U=cfg.U, N0=cfg.N0, T=cfg.T)


@pytest.mark.parametrize("mu", [math.sqrt(1.0 / 1800.0), 0.05], ids=["default_mu", "mu_0.05"])
def test_ibm_params_take_the_model_params(mu):
    # the IBM runs the PDE's model, with the overridden delta and m_D of the
    # params, not the config's: U * lambda_var = mu^2
    cfg = ExperimentConfig(mu=mu, rmax1=0.04, rmax2=0.04, n=3)
    params = cli.to_model_params(cfg, delta=0.02, m_d=0.3)
    ip = cli.ibm_params(cfg, params)
    assert ip.model is params
    assert (ip.U, ip.N0, ip.T, ip.cap) == (cfg.U, cfg.N0, cfg.T, cfg.cap)
    assert ip.U * ip.lambda_var == pytest.approx(mu ** 2, rel=1e-15)
    if mu == ExperimentConfig().mu:
        assert ip.lambda_var == 1.0 / 300.0  # the reference IBM keeps its bits


# ---------------------------------------------------------------- phase


def quick_phase_config(**overrides):
    base = dict(n=1, mu=0.1, L=4.0, m=65, t_end=10.0, record_every=0.5,
                initial_mass=100.0, sweep_min=(0.0, 0.0),
                sweep_max=(0.1, 0.5), sweep_steps=(2, 2),
                N0=50, T=10, replicates=2)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_cmd_phase_sweep(tmp_path):
    cfg = quick_phase_config()
    written = cli.cmd_phase(cfg, str(tmp_path))
    header, data, _ = read_csv(written["phase"])
    assert header == "delta,m_D,lambda,classification,N_total_pde,N_total_ibm_mean,error"
    assert len(data) == 4
    rows = [ln.split(",") for ln in data]
    # delta-major ordering over the grid corners
    assert [(float(r[0]), float(r[1])) for r in rows] == [
        (0.0, 0.0), (0.0, 0.5), (0.1, 0.0), (0.1, 0.5)]
    closed = -1.0 / 18.0 + 0.05  # identical wells: lambda has a closed form
    for r in rows:
        lam = float(r[2])
        assert r[3] == thresholds.classify(None, lam=lam)  # sign rule agreement
        assert r[6] == ""
        assert math.isfinite(float(r[4]))
        assert math.isfinite(float(r[5]))
        if float(r[1]) == 0.0:  # m_D = 0 cells, any delta
            assert lam == pytest.approx(closed, abs=1e-3)
    # decoupled-patch limit: the delta = 0 row matches the closed form too
    assert float(rows[1][2]) == pytest.approx(closed, abs=1e-12)


def test_cmd_phase_parallel_matches_serial(tmp_path):
    a = tmp_path / "serial"
    b = tmp_path / "pool"
    a.mkdir(), b.mkdir()
    cfg = quick_phase_config(phase_ibm=False, t_end=2.0)
    cli.cmd_phase(cfg, str(a))
    cli.cmd_phase(dataclasses.replace(cfg, threads=2), str(b))
    assert (a / "phase.csv").read_bytes() == (b / "phase.csv").read_bytes()


def test_phase_pool_has_at_most_one_worker_per_cell_and_cpu(monkeypatch):
    # a fake pool records its size and maps serially: no process is started
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = quick_phase_config(phase_ibm=False, t_end=2.0, threads=64)  # a 2 x 2 sweep
    for cpus in (64, 3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cells = cli.phase_cells(cfg)
        assert len(cells) == 4 and all(c.error == "" for c in cells)
    assert asked == [4, 3, 1]


def test_cmd_phase_does_not_depend_on_the_sampling_grid(tmp_path, monkeypatch):
    # phase never samples a final state: it builds no grid, so phase.csv is
    # the same at m = 3 and at an m whose axis would not fit in memory
    def refuse(*args):
        raise AssertionError("cmd_phase built a sampling grid")

    monkeypatch.setattr(cli, "grid_for", refuse)
    written = []
    for m in (3, 99999999999):
        out = tmp_path / str(m)
        out.mkdir()
        written.append(pathlib.Path(cli.cmd_phase(quick_phase_config(phase_ibm=False, m=m),
                                                  str(out))["phase"]).read_bytes())
    assert written[0] == written[1]


def test_cmd_phase_svg(tmp_path):
    cfg = quick_phase_config(phase_ibm=False, t_end=2.0)
    written = cli.cmd_phase(cfg, str(tmp_path), svg=True)
    svg = open(written["phase_svg"]).read()
    assert svg.startswith("<svg ")
    assert svg.count("<rect") >= 5  # 4 cells + background + legend
    assert "persist" in svg and "extinct" in svg
    # a sweep with equal ends draws every cell of phase.csv, at its sweep index
    cfg = quick_phase_config(phase_ibm=False, t_end=2.0, sweep_min=(0.05, 0.0),
                             sweep_max=(0.05, 1.0))
    written = cli.cmd_phase(cfg, str(tmp_path), svg=True)
    _, data, _ = read_csv(written["phase"])
    svg = open(written["phase_svg"]).read()
    assert len(data) == 4
    assert svg.count("</title></rect>") == len(data)
    assert len(set(re.findall(r'<rect x="(\d+)" y="(\d+)" width="62"', svg))) == len(data)


def test_cmd_phase_cell_failure_lands_in_error_column(tmp_path):
    # a tiny cap makes every growing cell overflow; the sweep must finish
    # anyway and carry the failure text in the row
    cfg = quick_phase_config(rmax1=0.5, rmax2=0.5, N0=50, T=20, cap=200)
    written = cli.cmd_phase(cfg, str(tmp_path))
    _, data, _ = read_csv(written["phase"])
    assert len(data) == 4
    failed = [ln for ln in data if "IbmOverflowError" in ln]
    assert failed
    for ln in failed:
        parts = ln.split(",")
        assert parts[3] == "error"
        assert parts[2] == "nan"


def test_phase_ibm_below_its_ceiling_keeps_every_bit():
    # a dying cell's replicates never pass the ceiling 4 N0: they draw
    # nothing extra, and the cell's mean is run_replicates' without a ceiling
    cfg = ExperimentConfig(N0=50, T=40, replicates=3, t_end=10.0)
    cell = cli._phase_cell((cfg, 1, 1, 0.1, 1.0))
    assert cell.error == "" and cell.lam > 0
    params = cli.ibm_params(cfg, cli.to_model_params(cfg, delta=0.1, m_d=1.0))
    full = ibm.run_replicates(params, [[cfg.seed, 1, 1, k] for k in range(cfg.replicates)])
    assert max(tr.n_total().max() for tr in full.trajectories) <= 4 * cfg.N0
    assert np.float64(cell.n_total_ibm_mean).tobytes() == full.n_total_mean[-1].tobytes()


def test_phase_row_comes_from_run_cell():
    # criterion 11 and the sweep share one cell evaluator: this persisting
    # cell's replicates pass the ceiling 4 N0, and its row holds run_cell's
    # lambda and weighted IBM mean bit for bit
    cfg = ExperimentConfig(N0=50, T=60, replicates=2)
    _, lam, _, summary = cli.run_cell(cfg, 1, 0, 0.05, 0.0)
    cell = cli._phase_cell((cfg, 1, 0, 0.05, 0.0))
    assert lam < 0 and max(tr.weight.max() for tr in summary.trajectories) > 1
    assert (np.array([cell.lam, cell.n_total_ibm_mean]).tobytes()
            == np.array([lam, summary.n_total_mean[-1]]).tobytes())


def test_phase_ibm_thins_persisting_cells_below_the_cap(tmp_path):
    # unthinned, each m_D = 0 replicate passes cap = 2000 within T = 120
    # (IbmOverflowError in the error column); thinned above 4 N0 = 400, every
    # cell finishes, and the weighted IBM means grow exactly where lambda < 0
    cfg = ExperimentConfig(N0=100, cap=2000, T=120, replicates=5, sweep_min=(0.05, 0.0),
                           sweep_max=(0.1, 1.0), sweep_steps=(2, 2))
    _, data, _ = read_csv(cli.cmd_phase(cfg, str(tmp_path))["phase"])
    rows = [ln.split(",") for ln in data]
    assert len(rows) == 4 and all(r[3] != "error" and r[6] == "" for r in rows)
    assert [float(r[5]) > 2 * cfg.N0 for r in rows] == [float(r[2]) < 0 for r in rows]


def test_cmd_phase_quotes_an_error_message_with_a_comma(tmp_path):
    # m_D = 2 at mu = 0.001 needs more Hermite modes than the solve allows;
    # the SolverError text has a comma and must stay one field of seven
    cfg = ExperimentConfig(mu=0.001, sweep_max=(0.1, 2.0), sweep_steps=(2, 2), t_end=10.0,
                           phase_ibm=False)
    written = cli.cmd_phase(cfg, str(tmp_path))
    with open(written["phase"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [7] * 5
    errors = [r[6] for r in rows[1:] if r[3] == "error"]
    assert errors and all(e.startswith("SolverError: ") and "," in e for e in errors)


def test_cmd_phase_programming_error_propagates(tmp_path, monkeypatch):
    # only numerical and config failures become error cells; a bug must
    # surface instead of being filed as one
    def broken(*args, **kwargs):
        raise TypeError("broken eigen call")

    monkeypatch.setattr(cli, "lambda_of", broken)
    cfg = quick_phase_config(phase_ibm=False, t_end=2.0)
    with pytest.raises(TypeError, match="broken eigen call"):
        cli.cmd_phase(cfg, str(tmp_path))


# ---------------------------------------------------------------- main


def write_config(tmp_path, text):
    p = tmp_path / "config.txt"
    p.write_text(text)
    return str(p)


def test_main_threshold_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, "n = 1\nmu = 0.1\ndelta = 0.02\n")
    code = cli.main(["threshold", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "threshold:" in out
    header, data, _ = read_csv(str(tmp_path / "threshold.csv"))
    assert header == "parameter,lo,hi,value,lambda_at_value,iterations"
    row = data[0].split(",")
    assert row[0] == "delta"
    assert abs(float(row[4])) <= 1e-12


def test_main_threshold_mu_extinct_at_every_mu_exits_1(tmp_path, capsys):
    # lambda >= delta - rmax - delta^2/m_D = 0.072 at every mu, so no mu
    # persists; the search used to exit 2 when the Hermite basis ran out
    path = write_config(tmp_path, "n = 2\nrmax1 = 0.12\nrmax2 = 0.12\nm_D = 1.2\n"
                                  "delta = 0.24\nthreshold_param = mu\n")
    assert cli.main(["threshold", "--config", path, "--out", str(tmp_path)]) == 1
    assert "no critical mu" in capsys.readouterr().err
    assert not (tmp_path / "threshold.csv").exists()


def test_main_solve_with_overrides(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "n = 1\nmu = 0.1\nL = 4.0\nm = 65\nt_end = 1.0\ninitial_mass = 10\n")
    out_dir = tmp_path / "results"
    code = cli.main(["solve", "--config", path, "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "final_state.txt").exists()


def test_main_solve_at_a_tiny_mu_writes_no_nan(tmp_path):
    # at mu = 1e-20 the sampling grid sits up to 4e10 basis widths from 0,
    # where the basis recurrence used to overflow and fill rows with nan
    path = write_config(tmp_path, "mu = 1e-20\n")
    out_dir = tmp_path / "results"
    assert cli.main(["solve", "--config", path, "--out", str(out_dir)]) == 0
    lines = (out_dir / "final_state.txt").read_text().splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 129 ** 2
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.isfinite(values).all()


def test_main_ibm_seed_override(tmp_path):
    path = write_config(tmp_path, "n = 1\nN0 = 30\nT = 5\nreplicates = 2\n")
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["ibm", "--config", path, "--out", str(a), "--seed", "7"]) == 0
    assert cli.main(["ibm", "--config", path, "--out", str(b), "--seed", "8"]) == 0
    assert (a / "ibm.csv").read_bytes() != (b / "ibm.csv").read_bytes()


def test_main_bad_config_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, "bogus = 1\n")
    assert cli.main(["solve", "--config", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_inconsistent_request_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, "rmax1 = 0.1\nrmax2 = 0.2\nN0 = 10\nT = 2\n")
    assert cli.main(["ibm", "--config", path, "--out", str(tmp_path)]) == 1
    assert "rmax1 == rmax2" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    # the IBM has one peak height: every cell would be an error row
    ("phase", "rmax2 = 0.05\n", "rmax1 == rmax2"),
    # General migration has no delta to sweep
    ("phase", "migration = general\nd11 = 0.05\nd12 = 0.05\nd21 = 0.05\nd22 = 0.05\n",
     "migration = symmetric"),
    # the IBM migrates at the one rate delta
    ("ibm", "migration = general\nd11 = 0.05\nd12 = 0.05\nd21 = 0.05\nd22 = 0.05\n",
     "migration = symmetric"),
    # keys every phase cell would reject, without the IBM's own check
    ("phase", "phase_ibm = false\ninitial_mass = -1\n", "bump mass must be > 0"),
    ("phase", "phase_ibm = false\nt_end = -1\n", "t_end must be >= 0"),
    ("phase", "phase_ibm = false\nt_end = inf\n", "t_end must be >= 0 and finite"),
    ("phase", "phase_ibm = false\nrecord_every = 0\n", "record_every must be > 0"),
    # more trajectory records than any solve keeps (they used to be
    # allocated first, a 14.6 TiB MemoryError traceback)
    ("solve", "t_end = 1e12\n", "t_end = 1000000000000.0 and record_every = 0.5 ask for more"),
    ("phase", "t_end = 1e12\n", "t_end = 1000000000000.0 and record_every = 0.5 ask for more"),
    ("phase", "phase_ibm = false\nmu = -1\n", "mu must be a finite positive real"),
    # a subnormal mass: too few digits for 12 significant ones in the output
    ("solve", "initial_mass = 1e-310\n", "at least sys.float_info.min = 2.2250738585072014e-308"),
    ("phase", "initial_mass = 1e-310\n", "at least sys.float_info.min = 2.2250738585072014e-308"),
    # lambda_var = mu^2 / U: the IBM needs mutations
    ("ibm", "U = 0\n", "needs U > 0, got 0.0"),
    ("phase", "U = 0\n", "needs U > 0, got 0.0"),
    # mu^2 overflows float64: refused, not an OverflowError traceback
    ("ibm", "mu = 1e200\n", "mu^2 / U must be finite, got mu = 1e+200"),
    ("phase", "mu = 1e200\n", "mu^2 / U must be finite, got mu = 1e+200"),
    # ... or underflows to 0: mutants that never move
    ("ibm", "mu = 1e-170\n", "mu^2 / U underflows to 0, got mu = 1e-170"),
    ("phase", "mu = 1e-170\n", "mu^2 / U underflows to 0, got mu = 1e-170"),
    # a sweep corner no cell can take
    ("phase", "sweep_min = -0.1, -0.5\n", "m_D must be >= 0"),
    ("phase", "sweep_min = -0.1, 0\n", "Symmetric.delta must be >= 0"),
    # one rung has nothing to agree with: its lambda is never certified
    ("eigen", "rungs = 1\n", "rungs must be >= 2"),
    # the sampling box's half-width: auto, or finite and positive
    ("solve", "L = inf\n", "L must be auto or finite and > 0, got inf"),
    ("solve", "L = nan\n", "L must be auto or finite and > 0, got nan"),
    ("phase", "phase_ibm = false\nL = inf\n", "L must be auto or finite and > 0, got inf"),
    ("phase", "phase_ibm = false\nL = nan\n", "L must be auto or finite and > 0, got nan"),
    # numpy's seed sequences take no negative entropy
    ("phase", "seed = -1\n", "seed must be >= 0"),
    ("ibm", "seed = -1\n", "seed must be >= 0"),
    # m^n rows with an n whose power has more digits than int() prints, and
    # one whose power would take minutes: refused at once all the same
    ("solve", "n = 1000000\n", "m^n = 129^1000000 rows, more than 4194304"),
    ("solve", "n = 1000000000\n", "m^n = 129^1000000000 rows, more than 4194304"),
    # a box too wide for a finite node count or a finite spacing, and one
    # whose spacing squared underflows to 0 in the ladder's stiffness
    ("solve", "L = 1e308\n", "L = 1e+308 has no finite node count"),
    ("solve", "L = 1e308\nm = 5\n", "must be a finite float, got L = 1e+308, m = 5"),
    ("eigen", "L = 1e-300\nm = 5\n", "underflows to 0 at L = 1e-300, m = 5"),
    # a mu whose Hermite band mu (k + 1/2) overflows: every command refuses it
    # (phase used to write a row per cell, and let overflow warnings escape)
    ("phase", "phase_ibm = false\nmu = 1.7976931348623157e308\n",
     "mu = 1.7976931348623157e+308 is too large for the Hermite basis"),
    ("eigen", "mu = 1.7976931348623157e308\n",
     "mu = 1.7976931348623157e+308 is too large for the Hermite basis"),
], ids=["phase_unequal_peaks", "phase_general", "ibm_general", "phase_initial_mass",
        "phase_t_end", "phase_infinite_t_end", "phase_record_every", "solve_records",
        "phase_records", "phase_mu", "solve_subnormal_mass", "phase_subnormal_mass",
        "ibm_zero_U", "phase_zero_U", "ibm_mu_1e200", "phase_mu_1e200", "ibm_mu_1e-170",
        "phase_mu_1e-170", "phase_negative_sweep",
        "phase_negative_delta_corner",
        "eigen_one_rung", "solve_infinite_L", "solve_nan_L", "phase_infinite_L", "phase_nan_L",
        "phase_negative_seed", "ibm_negative_seed", "solve_n_1e6", "solve_n_1e9",
        "solve_huge_L", "solve_huge_L_five_nodes", "eigen_underflowing_spacing",
        "phase_mu_float_max", "eigen_mu_float_max"])
def test_main_config_the_command_cannot_run_exits_1(tmp_path, capsys, command, text, message):
    keys = {line.split(" =")[0] for line in text.splitlines()}
    base = "".join(f"{key} = {value}\n" for key, value in
                   (("n", 1), ("N0", 10), ("T", 2), ("replicates", 1)) if key not in keys)
    path = write_config(tmp_path, base + text)
    out_dir = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out_dir)]) == 1
    assert message in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))


def test_phase_at_a_huge_mu_writes_solver_error_rows(tmp_path):
    # at mu = 1e250 the Hermite band is finite, but the observation rows
    # overflow: each cell is a SolverError row, and no overflow warning
    # escapes (pytest turns one into an error)
    path = write_config(tmp_path, "n = 1\nmu = 1e250\nphase_ibm = false\n"
                                  "sweep_steps = 2, 2\nt_end = 10\n")
    assert cli.main(["phase", "--config", path, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "phase.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert row["error"].startswith("SolverError: the solution overflows float64"), row


def test_main_allocation_failure_exits_1(tmp_path, capsys, monkeypatch):
    # a request too large to allocate is a bad request, not a traceback; the
    # command only raises what numpy raises, no real allocation is tried
    def too_large(config, out_dir):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(cli, "cmd_ibm", too_large)
    assert cli.main(["ibm", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 72.8 TiB for an array\n"


def test_every_config_field_has_a_kind():
    # the parse/emit kinds are read off ExperimentConfig's annotations
    assert list(cli._KINDS) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert set(cli._KINDS.values()) == {"int", "float", "str", "bool", "opt_float", "opt_int",
                                        "floats", "ints"}


def test_main_numerical_failure_exits_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "n = 1\nrmax1 = 2.0\nrmax2 = 2.0\nN0 = 1000\nT = 50\ncap = 5000\nreplicates = 1\n")
    assert cli.main(["ibm", "--config", path, "--out", str(tmp_path)]) == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_main_threshold_lapack_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a LAPACK convergence failure in the eigenvalue is numerical, not a bad config
    def failing(d, e, *args):
        return 1, np.zeros_like(d), None, None, 1

    monkeypatch.setattr(hermite, "dstebz", failing)
    path = write_config(tmp_path, "n = 1\nmu = 0.1\ndelta = 0.02\n")
    assert cli.main(["threshold", "--config", path, "--out", str(tmp_path)]) == 2
    assert "numerical failure: LAPACK dstebz failed" in capsys.readouterr().err
    assert not (tmp_path / "threshold.csv").exists()


def test_main_eigen_unconverged_ladder_exits_2(tmp_path, capsys):
    # tol_domain = 0: no two rungs satisfy |change| < 0, so its lambda is
    # not certified and eigen.csv is not written
    path = write_config(tmp_path, "n = 1\nmu = 0.01\nm_D = 0.5\ndelta = 0.5\nh_target = 0.25\n"
                                  "rungs = 2\ntol_domain = 0\n")
    assert cli.main(["eigen", "--config", path, "--out", str(tmp_path)]) == 2
    assert "box ladder" in capsys.readouterr().err
    assert not (tmp_path / "eigen.csv").exists()


@pytest.mark.parametrize("line", ["h_target = 0", "h_target = -0.5", "h_target = nan",
                                  "tol_domain = nan", "tol_domain = -1",
                                  "threshold_tol = -1", "threshold_tol = nan"])
def test_main_bad_ladder_or_threshold_tolerance_exits_1(tmp_path, capsys, line):
    # each is a ConfigError naming its key, raised before any solve
    key = line.split(" =")[0]
    path = write_config(tmp_path, "n = 1\n" + line + "\n")
    command = "threshold" if key == "threshold_tol" else "eigen"
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{key} must be" in err
    assert "Traceback" not in err and "numerical failure" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_main_solve_overflow_exits_2(tmp_path, capsys):
    # exp(-lambda t_end) with lambda near -50 is far beyond float64
    path = write_config(tmp_path, "n = 1\nrmax1 = 50.0\nrmax2 = 50.0\nt_end = 300.0\n")
    assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_main_removed_solver_keys_exit_1(tmp_path, capsys):
    for line in ("rel_tol = 1e-6", "sweep_params = delta,m_D", "threshold_lo = 0.1",
                 "threshold_hi = 0.2", "lambda_var = 0.1", "initial_variance = 0.5"):
        path = write_config(tmp_path, line + "\n")
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 1
        key = line.split(" =")[0]
        assert f"unknown key {key!r}" in capsys.readouterr().err


def test_main_missing_config_file_exits_1(tmp_path, capsys):
    assert cli.main(["solve", "--config", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["ibm", "--seed", "abc"], "invalid int value: 'abc'"),
], ids=["unknown_option", "no_subcommand", "bad_seed"])
def test_main_usage_error_exits_1(capsys, argv, message):
    # exit code 2 is reserved for numerical failure
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "usage: twopatch" in err and message in err


def test_main_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage: twopatch" in capsys.readouterr().out


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        path = write_config(tmp_path, "n = 1\nmu = 0.1\ndelta = 0.02\nh_target = 0.25\n")
        for command in ("threshold", "eigen", "threshold"):
            assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 0
        assert cli.main(["solve", "--bogus"]) == 1
    finally:
        cli._parser.cache_clear()
    # one tree: the root and one parser per subcommand
    assert built == ["twopatch"] + [f"twopatch {c}" for c in
                                    ("solve", "eigen", "ibm", "phase", "threshold")]


_LOADS_SCRIPT = """
import sys
from twopatch import cli
config, out = sys.argv[1:]
def loaded():
    return [m for m in ("scipy.sparse", "concurrent.futures.process") if m in sys.modules]
for command in ("solve", "threshold", "phase"):
    assert cli.main([command, "--config", config, "--out", out + "/" + command]) == 0
print(loaded())
assert cli.main(["eigen", "--config", config, "--out", out + "/eigen"]) == 0
print(loaded())
assert cli.main(["phase", "--config", config, "--out", out + "/pool", "--threads", "2"]) == 0
print(loaded())
"""


def test_ladder_and_pool_modules_load_only_when_used(tmp_path):
    # scipy.sparse serves only the box ladder behind twopatch eigen, and the
    # process pool only phase at threads > 1: a fresh process that runs
    # solve, threshold and phase at threads = 1 imports neither. Loaded on
    # demand, eigen and the pooled phase write what they write in-process.
    config = write_config(tmp_path, emit_config(
        quick_phase_config(delta=0.02, h_target=0.25, t_end=2.0, N0=20, T=3)))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _LOADS_SCRIPT, config, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines() if line.startswith("[")] == [
        "[]", "['scipy.sparse']", "['scipy.sparse', 'concurrent.futures.process']"]
    here = tmp_path / "here"
    assert cli.main(["eigen", "--config", config, "--out", str(here)]) == 0
    assert (tmp_path / "eigen" / "eigen.csv").read_bytes() == (here / "eigen.csv").read_bytes()
    assert ((tmp_path / "pool" / "phase.csv").read_bytes()
            == (tmp_path / "phase" / "phase.csv").read_bytes())


def test_eigen_at_the_default_config_loads_no_sparse_solver(tmp_path):
    # each rung factors one band with LAPACK: scipy's sparse solvers (and
    # csgraph, which imports them) stay out of a fresh process
    script = ("import sys\nfrom twopatch import cli\n"
              "assert cli.main(['eigen', '--out', sys.argv[1]]) == 0\n"
              "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph')"
              " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_main_svg_flag_does_not_reach_the_next_call(tmp_path):
    path = write_config(tmp_path, emit_config(quick_phase_config(phase_ibm=False)))
    assert cli.main(["phase", "--config", path, "--out", str(tmp_path / "a"), "--svg"]) == 0
    assert cli.main(["solve", "--config", path, "--out", str(tmp_path / "b")]) == 0
    assert cli.main(["phase", "--config", path, "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "phase.svg").exists()
    assert not (tmp_path / "b" / "phase.svg").exists()
    assert not (tmp_path / "c" / "phase.svg").exists()


def test_main_seed_override_does_not_reach_the_next_call(tmp_path):
    path = write_config(tmp_path, "n = 1\nN0 = 30\nT = 5\nreplicates = 2\n")
    for name, extra in (("a", []), ("b", ["--seed", "7"]), ("c", [])):
        assert cli.main(["ibm", "--config", path, "--out", str(tmp_path / name)] + extra) == 0
    ibm = {name: (tmp_path / name / "ibm.csv").read_bytes() for name in "abc"}
    assert ibm["c"] == ibm["a"] != ibm["b"]
