"""Command-line entry points: solve, eigen, ibm, phase, threshold.

Configuration is a flat ``key = value`` text file ('#' starts a comment,
lists are comma-separated). Every key maps to exactly one field of
ExperimentConfig; unknown keys are reported all at once. All numeric CSV
output carries at least 12 significant digits.

Exit codes: 0 success, 1 usage error or invalid configuration or request
(including one too large to allocate), 2 numerical failure (solver abort,
unconverged eigensolve, IBM overflow).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import operator
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import model
from .eigen import EigenError, default_schedules, lambda_limit, lambda_of
from .grid import Grid, build_grid
from .hermite import check_mu
from .ibm import IbmOverflowError, IbmParams, run_replicates
from .pde import Bump, InitialData, SolverConfig, SolverError, integrate_to
from .thresholds import ThresholdError, classify, find_threshold


class ConfigError(ValueError):
    """One or more invalid configuration entries (all collected)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; defaults mirror the reference scenario
    (n=2, rmax=1/18, mu^2 = 1/1800, horizon 300). The IBM's lambda_var is mu^2 / U."""

    # model
    n: int = 2
    mu: float = math.sqrt(1.0 / 1800.0)
    rmax1: float = 1.0 / 18.0
    rmax2: float = 1.0 / 18.0
    m_D: float = 0.5
    delta: float = 0.05
    migration: str = "symmetric"  # "symmetric" or "general"
    d11: float = 0.0
    d12: float = 0.0
    d21: float = 0.0
    d22: float = 0.0
    growth: str = model.GROWTH_MALTHUSIAN
    # x1 axis where solve samples final_state.txt (None -> derived from the
    # model scales); with both set, the one box of the eigen command
    L: float | None = None
    m: int | None = None
    # time horizon and records
    t_end: float = 300.0
    record_every: float = 0.5
    # initial data
    initial: str = "origin"  # "origin" or "spread"
    initial_mass: float = 1e4
    # box ladder of the eigen command (phase and threshold use the Hermite
    # route, which has no settings)
    h_target: float | None = None
    tol_domain: float = 1e-6
    rungs: int = 4
    richardson: bool = True
    # ibm
    U: float = 1.0 / 6.0
    N0: int = 10_000
    T: int = 300
    replicates: int = 50
    cap: int = 10_000_000
    # phase sweep (axis 1 = delta, axis 2 = m_D)
    sweep_min: tuple[float, ...] = (0.0, 0.0)
    sweep_max: tuple[float, ...] = (0.1, 1.0)
    sweep_steps: tuple[int, ...] = (6, 6)
    phase_ibm: bool = True
    # threshold search
    threshold_param: str = "delta"
    threshold_tol: float = 1e-4  # largest accepted |lambda| at the crossing found
    # run control
    seed: int = 0
    threads: int = 1
    out_dir: str = "."


# Each field's parse/emit kind, read off its annotation (annotations are
# strings under "from __future__ import annotations").
_KINDS = {f.name: {"int": "int", "float": "float", "str": "str", "bool": "bool",
                   "float | None": "opt_float", "int | None": "opt_int",
                   "tuple[float, ...]": "floats", "tuple[int, ...]": "ints"}[f.type]
          for f in fields(ExperimentConfig)}


def _parse_one(kind: str, raw: str):
    if kind in ("opt_float", "opt_int") and raw.lower() in ("auto", "none"):
        return None
    if kind in ("int", "opt_int"):
        return int(raw)
    if kind in ("float", "opt_float"):
        return float(raw)
    if kind == "bool":
        if raw.lower() in ("true", "yes", "1", "on"):
            return True
        if raw.lower() in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind == "str":
        return raw
    if kind == "floats":
        return tuple(float(part) for part in raw.split(","))
    if kind == "ints":
        return tuple(int(part) for part in raw.split(","))
    raise AssertionError(kind)


def _emit_one(kind: str, value) -> str:
    if value is None:
        return "auto"
    if kind == "bool":
        return "true" if value else "false"
    if kind in ("floats", "ints"):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value text into a validated ExperimentConfig."""
    values = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KINDS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = _parse_one(_KINDS[key], raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    if errors:
        raise ConfigError("; ".join(errors))
    config = ExperimentConfig(**values)
    validate_config(config)
    return config


def emit_config(config: ExperimentConfig) -> str:
    """Emit a config as parseable text; parse_config(emit_config(c)) == c, so a str
    value holding '#' or a line break, or with outer whitespace, raises ConfigError."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    bad = [f"{name} = {v!r}" for name, v in values.items() if isinstance(v, str)
           and ("#" in v or v != v.strip() or len(v.splitlines()) > 1)]
    if bad:
        raise ConfigError("a str value with '#', a line break or outer whitespace would not "
                          "read back: " + ", ".join(bad))
    lines = [f"{name} = {_emit_one(_KINDS[name], v)}" for name, v in values.items()]
    return "\n".join(lines) + "\n"


def validate_config(config: ExperimentConfig) -> None:
    """Collect every invalid entry and raise once."""
    errors = []
    if config.migration not in ("symmetric", "general"):
        errors.append(f"migration must be 'symmetric' or 'general', got {config.migration!r}")
    if config.initial not in ("origin", "spread"):
        errors.append(f"initial must be 'origin' or 'spread', got {config.initial!r}")
    if config.threads < 1:
        errors.append(f"threads must be >= 1, got {config.threads}")
    if config.seed < 0:
        errors.append(f"seed must be >= 0, got {config.seed}")
    if config.replicates < 1:
        errors.append(f"replicates must be >= 1, got {config.replicates}")
    if config.m_D < 0:
        errors.append(f"m_D must be >= 0, got {config.m_D}")
    for name in ("sweep_min", "sweep_max", "sweep_steps"):
        if len(getattr(config, name)) != 2:
            errors.append(f"{name} must have two entries, got {getattr(config, name)!r}")
    if len(config.sweep_steps) == 2 and any(s < 2 for s in config.sweep_steps):
        errors.append(f"sweep_steps entries must be >= 2, got {config.sweep_steps!r}")
    if config.rungs < 2:
        errors.append(f"rungs must be >= 2 (two rungs certify the ladder), got {config.rungs}")
    if config.L is not None and not 0 < config.L < math.inf:
        errors.append(f"L must be auto or finite and > 0, got {config.L}")
    if config.h_target is not None and not 0 < config.h_target < math.inf:
        errors.append(f"h_target must be auto or finite and > 0, got {config.h_target}")
    if not 0 <= config.tol_domain < math.inf:
        errors.append(f"tol_domain must be finite and >= 0, got {config.tol_domain}")
    if not 0 < config.threshold_tol < math.inf:
        errors.append(f"threshold_tol must be finite and > 0, got {config.threshold_tol}")
    if config.m is not None and (config.m < 3 or config.m % 2 == 0):
        errors.append(f"m must be odd and >= 3, got {config.m}")
    if config.threshold_param not in ("delta", "m_D", "mu", "rmax"):
        errors.append(f"threshold_param must be delta, m_D, mu or rmax, got {config.threshold_param!r}")
    if errors:
        raise ConfigError("; ".join(errors))


def to_model_params(config: ExperimentConfig, *, delta: float | None = None,
                    m_d: float | None = None) -> model.ModelParams:
    """Model parameters from a config, optionally overriding delta / m_D; every
    command starts here, so each refuses a mu that hermite.check_mu refuses."""
    if config.migration == "symmetric":
        mig = model.Symmetric(config.delta if delta is None else delta)
    else:
        mig = model.General(config.d11, config.d12, config.d21, config.d22)
    params = model.ModelParams(
        n=config.n, mu=config.mu, rmax1=config.rmax1, rmax2=config.rmax2,
        beta=model.beta_of(config.m_D if m_d is None else m_d),
        migration=mig, growth=config.growth)
    check_mu(params.mu)
    return params


def grid_for(config: ExperimentConfig, params: model.ModelParams) -> Grid:
    """The config's L and m, else the default box max(4 beta, 6 sqrt(mu)) + 2
    at spacing ~1/16: the nodes where solve samples the final state."""
    length = config.L
    if length is None:
        length = max(4.0 * params.beta, 6.0 * math.sqrt(params.mu)) + 2.0
    if config.m is not None:
        m = config.m
    else:
        half = 16.0 * length  # spacing ~1/16
        if not math.isfinite(half):
            raise ConfigError(f"L = {length!r} has no finite node count at spacing 1/16; "
                              "set a smaller L")
        m = 2 * max(1, round(half)) + 1
    return build_grid(params.n, length, m)


def solver_config(config: ExperimentConfig) -> SolverConfig:
    return SolverConfig(t_end=config.t_end, record_every=config.record_every)


def initial_state(config: ExperimentConfig, params: model.ModelParams) -> InitialData:
    """Initial x1 profiles: identical in both habitats (mirror-symmetric data).

    "origin": one Gaussian bump at the midpoint between the optima.
    "spread": equal-mass bumps at the midpoint and at both optima; same
    total mass, far smaller transient, which matters when classifying
    persistence from a finite horizon. Every bump, and every transverse
    trait, starts at the stationary width mu.
    """
    if config.initial == "origin":
        bumps = (Bump(0.0, config.initial_mass),)
    else:
        third = config.initial_mass / 3.0
        bumps = tuple(Bump(c, third) for c in (0.0, -params.beta, params.beta))
    return InitialData(bumps, bumps)


def ibm_params(config: ExperimentConfig, params: model.ModelParams) -> IbmParams:
    """The IBM of params (to_model_params of config) with the config's U, N0, T and cap.
    IbmParams rejects a params without mirror habitats and a U that is not > 0."""
    return IbmParams(model=params, U=config.U, N0=config.N0, T=config.T, cap=config.cap)


# "%.15g" rounds the top of the float range up to these texts, which read back
# as inf; those values print as repr(x), the shortest text that reads back as x.
_OVERFLOWS = ("1.79769313486232e+308", "-1.79769313486232e+308")


def _fmt(x) -> str:
    return _fmt_floats(np.array([x]))[0] if isinstance(x, float) else str(x)


def _fmt_floats(values: np.ndarray) -> list[str]:
    """Each float of an array as "%.15g", or as repr(x) where that would read back as inf."""
    floats = values.tolist()
    texts = ["%.15g" % v for v in floats]
    if _OVERFLOWS[0] in texts or _OVERFLOWS[1] in texts:
        texts = [repr(v) if t in _OVERFLOWS else t for v, t in zip(floats, texts)]
    return texts


def _write_csv(path: str, header: str, rows, footer: str | None = None) -> None:
    """Rows of _fmt fields; a field with a comma or quote is quoted (RFC 4180)."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows([_fmt(x) for x in row] for row in rows)
        if footer is not None:
            fh.write(footer + "\n")


def _write_float_csv(path: str, header: str, columns) -> None:
    """_write_csv for float columns, each distinct one formatted once."""
    cols = [np.asarray(col, dtype=float) for col in columns]
    distinct = {col.tobytes(): col for col in cols}  # by bytes: -0.0 and nan stay apart
    texts = {key: _fmt_floats(col) for key, col in distinct.items()}
    cells = [""] * (len(cols) * cols[0].size)
    for k, col in enumerate(cols):
        cells[k::len(cols)] = texts[col.tobytes()]
    with open(path, "w") as fh:
        fh.write(header + "\n" + ("%s," * (len(cols) - 1) + "%s\n") * cols[0].size % tuple(cells))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

# final_state.txt lists every node of the n-trait grid; above this many rows
# (n = 4 at the default m = 129 needs 2.8e8) the write cannot finish.
_FINAL_STATE_ROWS = 2 ** 22


def cmd_solve(config: ExperimentConfig, out_dir: str) -> dict[str, str]:
    """Run the density model; write trajectory.csv and final_state.txt.

    Raises ConfigError, before integrating, when final_state.txt would
    exceed _FINAL_STATE_ROWS rows.
    """
    params = to_model_params(config)
    grid = grid_for(config, params)
    rows = grid.m ** min(grid.n, 32)  # m >= 3, so m^32 is already over the limit
    if rows > _FINAL_STATE_ROWS:
        count = f" = {rows}" if grid.n <= 32 else ""
        raise ConfigError(
            f"final_state.txt would hold m^n = {grid.m}^{grid.n}{count} rows, more than "
            f"{_FINAL_STATE_ROWS}; set a smaller m or n")
    traj, final = integrate_to(params, initial_state(config, params), solver_config(config))
    u1, u2 = final.sample(grid.axis())

    traj_path = os.path.join(out_dir, "trajectory.csv")
    _write_float_csv(traj_path, "t,N1,N2,rbar1,rbar2",
                     [traj.t, traj.N1, traj.N2, traj.rbar1, traj.rbar2])

    # Rows run over the m^n nodes, x1 slowest: the x1 profile times the
    # stationary Gaussian N(0, mu) in each of x2..xn. Each x1 slab is one join
    # of six strings per transverse node: x1, ",x2,...,xn,", u1, ",", u2, "\n".
    # The even Gaussian's product takes few distinct values, and on mirror
    # runs u2 is u1 reversed, so each density's products are formatted once,
    # keyed by its bit pattern (-0.0 prints apart from 0.0), and gathered per
    # slab by itemgetter. At n = 1 a slab is one row: the file is one template.
    state_path = os.path.join(out_dir, "final_state.txt")
    ax = grid.axis()
    xs = _fmt_floats(ax)
    idx = np.indices((grid.m,) * (grid.n - 1)).reshape(grid.n - 1, grid.m ** (grid.n - 1)).T
    with np.errstate(over="ignore"):  # at a tiny mu, far nodes' exp(-inf) is 0
        phi = np.exp(-0.5 * ax * ax / params.mu) / math.sqrt(2.0 * math.pi * params.mu)
    factors, which = np.unique(np.prod(phi[idx], axis=1), return_inverse=True)
    mids = ["".join("," + xs[k] for k in node) + "," for node in idx.tolist()]
    keys = [u.view(np.uint64).tolist() for u in (u1, u2)]
    texts: dict[int, list[str]] = {}
    for key, a in zip(keys[0] + keys[1], u1.tolist() + u2.tolist()):
        if key not in texts:
            texts[key] = _fmt_floats(a * factors)
    with open(state_path, "w") as fh:
        fh.write(f"# n={grid.n} L={_fmt(grid.L)} m={grid.m} h={_fmt(grid.h)}\n")
        fh.write(f"# t={_fmt(traj.t[-1])} extinct={traj.extinct}\n")
        fh.write(",".join(f"x{k + 1}" for k in range(grid.n)) + ",u1,u2\n")
        if grid.n == 1:
            u1, u2 = ([texts[k][0] for k in ks] for ks in keys)
            fh.write("%s,%s,%s\n" * grid.m % tuple(v for row in zip(xs, u1, u2) for v in row))
        else:
            get = operator.itemgetter(*which.tolist())
            slab = [","] * (6 * which.size)
            slab[1::6], slab[5::6] = mids, ["\n"] * which.size
            for x, key1, key2 in zip(xs, *keys):
                slab[0::6] = [x] * which.size
                slab[2::6], slab[4::6] = get(texts[key1]), get(texts[key2])
                fh.write("".join(slab))
    return {"trajectory": traj_path, "final_state": state_path}


def cmd_eigen(config: ExperimentConfig, out_dir: str) -> dict[str, str]:
    """Run the box ladder; write eigen.csv with a trailing # lambda= row.

    With L and m both set, the one box (L, m) is solved and reported as is.
    Otherwise the default ladder must certify its value: two rungs within
    tol_domain. A ladder that runs out of rungs first raises EigenError.
    """
    params = to_model_params(config)
    one_box = config.L is not None and config.m is not None
    if one_box:
        ls, ms = [config.L], [config.m]
    else:
        ls, ms = default_schedules(params, h_target=config.h_target, rungs=config.rungs)
    result = lambda_limit(params, ls, ms, tol_domain=config.tol_domain,
                          richardson=config.richardson)
    if not one_box and not result.converged:
        raise EigenError(
            f"box ladder not converged: lambda_L still moved by more than tol_domain = "
            f"{config.tol_domain:g} at rung {config.rungs}; raise rungs or tol_domain")
    path = os.path.join(out_dir, "eigen.csv")
    _write_csv(path, "L,m,lambda_L,residual",
               ((row.L, row.m, row.lambda_L, row.residual) for row in result.rows),
               footer=f"# lambda={_fmt(result.lam)}")
    return {"eigen": path}


def cmd_ibm(config: ExperimentConfig, out_dir: str) -> dict[str, str]:
    """Run replicate stochastic simulations; write ibm.csv and ibm_mean.csv.

    The replicates are never thinned (unlike phase's): every count is simulated."""
    params = ibm_params(config, to_model_params(config))
    seeds = [[config.seed, k] for k in range(config.replicates)]
    summary = run_replicates(params, seeds)

    path = os.path.join(out_dir, "ibm.csv")
    rows = np.concatenate([np.column_stack([np.full(tr.t.size, k), tr.t, tr.N1, tr.N2])
                           for k, tr in enumerate(summary.trajectories)])
    _write_float_csv(path, "replicate,t,N1,N2", rows.T)

    mean_path = os.path.join(out_dir, "ibm_mean.csv")
    _write_float_csv(mean_path, "t,N_total_mean", [summary.t, summary.n_total_mean])
    return {"ibm": path, "ibm_mean": mean_path}


def cmd_threshold(config: ExperimentConfig, out_dir: str) -> dict[str, str]:
    """Find the requested critical parameter; write threshold.csv."""
    result = find_threshold(to_model_params(config), config.threshold_param,
                            tol_lambda=config.threshold_tol)
    path = os.path.join(out_dir, "threshold.csv")
    _write_csv(path, "parameter,lo,hi,value,lambda_at_value,iterations",
               [(result.parameter, result.lo, result.hi, result.value,
                 result.lambda_at_value, result.iterations)])
    return {"threshold": path}


@dataclass
class PhaseCell:
    """One sweep cell: requested rates, eigenvalue, classification, finals."""

    delta: float
    m_D: float
    lam: float
    classification: str
    n_total_pde: float
    n_total_ibm_mean: float
    error: str


def run_cell(config: ExperimentConfig, i: int, j: int, delta: float, m_d: float):
    """Sweep cell (i, j) at (delta, m_d): (params, lambda, PDE trajectory, IBM
    ReplicateSummary or None when phase_ibm is off). Replicates, seeded [seed, i,
    j, k], thin above twice their founding total (ceiling 4 N0, ibm.run), so their
    mean weight * (N1 + N2) is an unbiased estimate of the unthinned mean."""
    params = to_model_params(config, delta=delta, m_d=m_d)
    lam = lambda_of(params)
    traj, _ = integrate_to(params, initial_state(config, params), solver_config(config))
    summary = None
    if config.phase_ibm:
        seeds = [[config.seed, i, j, k] for k in range(config.replicates)]
        summary = run_replicates(ibm_params(config, params), seeds, ceiling=4 * config.N0)
    return params, lam, traj, summary


def _phase_cell(args) -> PhaseCell:
    """One sweep cell's row from run_cell: the final PDE total and IBM mean."""
    config, i, j, delta, m_d = args
    try:
        params, lam, traj, summary = run_cell(config, i, j, delta, m_d)
        n_ibm = math.nan if summary is None else float(summary.n_total_mean[-1])
        return PhaseCell(delta=delta, m_D=m_d, lam=lam, classification=classify(params, lam=lam),
                         n_total_pde=float(traj.N1[-1] + traj.N2[-1]), n_total_ibm_mean=n_ibm,
                         error="")
    # Numerical and config failures land in the error column; anything else
    # is a programming error and propagates.
    except (SolverError, EigenError, IbmOverflowError, ValueError, FloatingPointError) as exc:
        return PhaseCell(delta=delta, m_D=m_d, lam=math.nan, classification="error",
                         n_total_pde=math.nan, n_total_ibm_mean=math.nan,
                         error=f"{type(exc).__name__}: {exc}")


def phase_cells(config: ExperimentConfig) -> list[PhaseCell]:
    """Evaluate every sweep cell (delta-major order), in a process pool when
    threads > 1. The pool has at most one worker per cell and per CPU."""
    deltas = np.linspace(config.sweep_min[0], config.sweep_max[0], config.sweep_steps[0])
    mds = np.linspace(config.sweep_min[1], config.sweep_max[1], config.sweep_steps[1])
    jobs = [(config, i, j, float(d), float(md))
            for i, d in enumerate(deltas) for j, md in enumerate(mds)]
    if config.threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        workers = min(config.threads, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_phase_cell, jobs))
    return [_phase_cell(job) for job in jobs]


def cmd_phase(config: ExperimentConfig, out_dir: str, *, svg: bool = False) -> dict[str, str]:
    """Sweep the (delta, m_D) plane; write phase.csv (and phase.svg).

    General migration (no delta to sweep), a config that solver_config
    rejects, and a sweep corner that to_model_params or initial_state or,
    with phase_ibm on, ibm_params rejects raise before any cell (exit 1).
    The valid delta and m_D values are intervals, so valid corners make
    every cell valid."""
    if config.migration != "symmetric":
        raise ConfigError("phase sweeps the symmetric migration rate delta: "
                          "it needs migration = symmetric")
    solver_config(config)
    for delta in (config.sweep_min[0], config.sweep_max[0]):
        for m_d in (config.sweep_min[1], config.sweep_max[1]):
            params = to_model_params(config, delta=delta, m_d=m_d)
            initial_state(config, params)
            if config.phase_ibm:
                ibm_params(config, params)
    cells = phase_cells(config)
    path = os.path.join(out_dir, "phase.csv")
    _write_csv(path, "delta,m_D,lambda,classification,N_total_pde,N_total_ibm_mean,error",
               ((c.delta, c.m_D, c.lam, c.classification, c.n_total_pde,
                 c.n_total_ibm_mean, c.error) for c in cells))
    written = {"phase": path}
    if svg:
        svg_path = os.path.join(out_dir, "phase.svg")
        with open(svg_path, "w") as fh:
            fh.write(phase_svg(config, cells))
        written["phase_svg"] = svg_path
    return written


def phase_svg(config: ExperimentConfig, cells: list[PhaseCell]) -> str:
    """Hand-emitted heat map of the sweep (no plotting dependency).

    Cell k of the delta-major sweep is drawn at column i, row j = divmod(k, n_m):
    delta runs left to right and m_D bottom to top, each from its sweep_min
    to its sweep_max."""
    n_d, n_m = config.sweep_steps
    cell_px, margin = 64, 70
    width = margin + n_d * cell_px + 20
    height = margin + n_m * cell_px + 60
    colors = {"persist": "#2e7d46", "extinct": "#8c2d2d",
              "critical": "#d9a420", "error": "#777777"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:sans-serif;font-size:12px}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    deltas = [round(c.delta, 12) for c in cells[::n_m]]
    mds = [round(c.m_D, 12) for c in cells[:n_m]]
    for k, c in enumerate(cells):
        i, j = divmod(k, n_m)
        x = margin + i * cell_px
        y = margin + (n_m - 1 - j) * cell_px
        fill = colors.get(c.classification, "#777777")
        title = f"delta={deltas[i]}, m_D={mds[j]}, lambda={c.lam:.6g}"
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell_px - 2}" height="{cell_px - 2}" '
            f'fill="{fill}"><title>{title}</title></rect>')
    for i, d in enumerate(deltas):
        x = margin + i * cell_px + cell_px // 2 - 12
        parts.append(f'<text x="{x}" y="{margin + n_m * cell_px + 18}">{d:.3g}</text>')
    for j, md in enumerate(mds):
        y = margin + (n_m - 1 - j) * cell_px + cell_px // 2
        parts.append(f'<text x="{margin - 45}" y="{y}">{md:.3g}</text>')
    parts.append(f'<text x="{margin}" y="{margin - 30}" font-weight="bold">'
                 'persistence map (columns: delta, rows: m_D)</text>')
    legend_y = margin + n_m * cell_px + 40
    x = margin
    for name, color in colors.items():
        parts.append(f'<rect x="{x}" y="{legend_y - 12}" width="14" height="14" fill="{color}"/>')
        parts.append(f'<text x="{x + 18}" y="{legend_y}">{name}</text>')
        x += 110
    parts.append("</svg>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path) as fh:
        return parse_config(fh.read())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="twopatch",
        description="Two-habitat adaptation dynamics: PDE, eigenvalue, stochastic and sweep runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "integrate the density model and record the trajectory"),
        ("eigen", "estimate the principal eigenvalue via the box ladder"),
        ("ibm", "run replicate individual-based simulations"),
        ("phase", "sweep the (delta, m_D) plane and classify persistence"),
        ("threshold", "find a critical parameter value"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output directory (default: config out_dir)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--threads", type=int, help="worker pool size for sweeps")
        if name == "phase":
            p.add_argument("--svg", action="store_true", help="also write phase.svg")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help (code 0) or a usage error
        return 1 if exc.code else 0
    try:
        config = _load_config(args.config)
        overrides = {k: v for k, v in (("seed", args.seed), ("threads", args.threads))
                     if v is not None}
        if overrides:
            config = replace(config, **overrides)
            validate_config(config)
        out_dir = args.out if args.out is not None else config.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "phase":
            written = cmd_phase(config, out_dir, svg=args.svg)
        else:  # the module globals at call time, so a wrapper set on them runs
            written = {"solve": cmd_solve, "eigen": cmd_eigen, "ibm": cmd_ibm,
                       "threshold": cmd_threshold}[args.command](config, out_dir)
    except (ConfigError, ThresholdError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a request too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (SolverError, EigenError, IbmOverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    for kind, path in written.items():
        print(f"{kind}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
