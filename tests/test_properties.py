"""Seeded property checks over sampled parameter sets.

Each check holds for every model, so it runs on parameter sets drawn by
numpy's default_rng from a fixed seed: the sets are the same on every run,
and a failure names the set. The identities are exact up to rounding:

- at m_D = 0, lambda = -rmax + n mu / 2 on mirror habitats, and n mu / 2
  plus the smaller eigenvalue of the 2 x 2 migration-growth matrix on any;
- raising rmax by c lowers lambda by c;
- n traits add (n - 1) mu / 2 to the one-trait lambda;
- at m_D = 0 the PDE mass from the basis-width bump grows at -lambda exactly;
- mirror runs give N1 == N2 bitwise;
- a delta, m_D or mu search either finds no crossing or lands on one to
  |lambda| <= 1e-12, inside a bracket whose ends straddle it;
- off the mirror (General migration, one-way included, and unequal peaks),
  lambda is the smallest eigenvalue of the dense Galerkin matrix of oracle.
"""

import dataclasses
import math

import numpy as np
import oracle
import pytest

from twopatch import eigen, model, pde, thresholds
from twopatch.grid import build_grid
from twopatch.pde import Bump, InitialData

SETS = 20


def sampled_params():
    """SETS mirror-habitat parameter sets with beta^2 / mu <= 20 (bases of at most 256 modes)."""
    rng = np.random.default_rng(20240712)
    out = []
    for _ in range(SETS):
        mu = float(np.exp(rng.uniform(np.log(0.01), np.log(0.3))))
        rmax = float(rng.uniform(-0.1, 0.3))
        out.append(model.ModelParams(
            n=int(rng.integers(1, 4)), mu=mu, rmax1=rmax, rmax2=rmax,
            beta=float(rng.uniform(0.0, math.sqrt(20.0 * mu))),
            migration=model.Symmetric(float(rng.uniform(0.0, 0.5)))))
    return out


def sampled_nonmirror_params():
    """SETS parameter sets off the mirror, beta^2 / mu <= 20: General migration
    (every third one-way, d12 = 0) and Symmetric migration between unequal peaks."""
    rng = np.random.default_rng(20261019)
    out = []
    for k in range(SETS):
        mu = float(np.exp(rng.uniform(np.log(0.01), np.log(0.3))))
        rmax1, rmax2 = (float(r) for r in rng.uniform(-0.1, 0.3, size=2))
        if k % 2:
            migration = model.Symmetric(float(rng.uniform(0.0, 0.5)))
        else:
            d11, d12, d21, d22 = (float(d) for d in rng.uniform(0.0, 0.5, size=4))
            migration = model.General(d11, 0.0 if k % 3 == 0 else d12, d21, d22)
        out.append(model.ModelParams(
            n=int(rng.integers(1, 4)), mu=mu, rmax1=rmax1, rmax2=rmax2,
            beta=float(rng.uniform(0.0, math.sqrt(20.0 * mu))), migration=migration))
    return out


PARAMS = sampled_params()
NONMIRROR = sampled_nonmirror_params()
IDS = [f"set{k}" for k in range(SETS)]


@pytest.mark.parametrize("p", PARAMS, ids=IDS)
def test_lambda_identities(p):
    lam = eigen.lambda_of(p)
    assert eigen.lambda_of(p.with_m_D(0.0)) == pytest.approx(
        -p.rmax1 + 0.5 * p.n * p.mu, abs=1e-12)
    c = 0.125
    raised = dataclasses.replace(p, rmax1=p.rmax1 + c, rmax2=p.rmax2 + c)
    assert eigen.lambda_of(raised) == pytest.approx(lam - c, abs=1e-12)
    one = dataclasses.replace(p, n=1)
    assert lam == pytest.approx(eigen.lambda_of(one) + 0.5 * (p.n - 1) * p.mu, abs=1e-12)


@pytest.mark.parametrize("p", PARAMS, ids=IDS)
def test_pde_growth_rate_and_mirror_masses(p):
    g = build_grid(p.n, 2.0, 33)
    cfg = pde.SolverConfig(t_end=50.0, record_every=5.0)
    # m_D = 0: the basis-width bump at 0 is the principal mode itself
    flat = p.with_m_D(0.0)
    bump = (Bump(0.0, 1.0),)
    traj, _ = pde.integrate_to(flat, InitialData(bump, bump), cfg)
    rate = math.log(traj.n_total()[-1] / traj.n_total()[0]) / cfg.t_end
    assert rate == pytest.approx(p.rmax1 - 0.5 * p.n * p.mu, rel=1e-10, abs=1e-12)
    # mirror data on mirror habitats: the two habitats' records agree bitwise
    spread = tuple(Bump(c, 1.0) for c in (0.0, -p.beta, p.beta))
    traj, final = pde.integrate_to(p, InitialData(spread, spread), cfg)
    np.testing.assert_array_equal(traj.N1[1:], traj.N2[1:])
    np.testing.assert_array_equal(traj.rbar1[1:], traj.rbar2[1:])
    u1, u2 = final.sample(g.axis())
    np.testing.assert_array_equal(u2, u1[::-1])


@pytest.mark.parametrize("which", ["delta", "m_D", "mu"])
@pytest.mark.parametrize("p", PARAMS, ids=IDS)
def test_threshold_search_lands_on_the_crossing(p, which):
    # ThresholdError (no crossing) is an answer; EigenError is not
    try:
        res = thresholds.find_threshold(p, which)
    except thresholds.ThresholdError:
        return
    assert abs(res.lambda_at_value) <= 1e-12
    assert res.lo <= res.value <= res.hi
    assert eigen.lambda_of(thresholds._with_value(p, which, res.lo)) < 0
    assert eigen.lambda_of(thresholds._with_value(p, which, res.hi)) >= 0


@pytest.mark.parametrize("p", NONMIRROR, ids=IDS)
def test_nonmirror_lambda_identities(p):
    # at beta = 0 every habitat's Hermite ground state is the same, so
    # lambda = n mu / 2 + the smaller eigenvalue of [[-rmax1 + d11, -d12], [-d21, -rmax2 + d22]]
    d11, d12, d21, d22 = p.migration.rates
    a, b = -p.rmax1 + d11, -p.rmax2 + d22
    smaller = 0.5 * (a + b) - math.sqrt(0.25 * (a - b) ** 2 + d12 * d21)
    assert eigen.lambda_of(p.with_m_D(0.0)) == pytest.approx(0.5 * p.n * p.mu + smaller,
                                                            abs=1e-12)
    lam = eigen.lambda_of(p)
    c = 0.125
    raised = dataclasses.replace(p, rmax1=p.rmax1 + c, rmax2=p.rmax2 + c)
    assert eigen.lambda_of(raised) == pytest.approx(lam - c, abs=1e-12)
    one = dataclasses.replace(p, n=1)
    assert lam == pytest.approx(eigen.lambda_of(one) + 0.5 * (p.n - 1) * p.mu, abs=1e-12)


@pytest.mark.parametrize("p", NONMIRROR, ids=IDS)
def test_nonmirror_lambda_matches_dense_oracle(p):
    # the banded, symmetrised route against dense eigvals of the unsymmetric block matrix
    dense = np.linalg.eigvals(oracle.galerkin_matrix(p, 256)).real.min()
    assert eigen.lambda_of(p) == pytest.approx(dense, abs=1e-12)
