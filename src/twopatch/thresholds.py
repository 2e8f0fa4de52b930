"""Critical-parameter search on the principal eigenvalue's sign.

lambda is monotone in each of delta, m_D, mu (nondecreasing) and rmax
(decreasing, slope exactly -1), so each persistence boundary is one sign
change, found by false position once a bracket straddles it. Closed-form
existence inequalities are checked first, so a hopeless search fails with
the inequality that rules it out. For mu that is a lower bound on lambda
at every mu (diffusion and the transverse load only raise lambda): min_x
lambda_min([[delta - r1(x), -delta], [-delta, delta - r2(x)]]), which is
delta - rmax - delta^2/m_D if m_D > 2 delta, else m_D/4 - rmax.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from . import hermite, model
from .eigen import lambda_of

PERSIST = "persist"
EXTINCT = "extinct"
CRITICAL = "critical"

_PARAMETERS = ("delta", "m_D", "mu", "rmax")

# |lambda| at or below this classifies as critical.
CRITICAL_BAND = 1e-6


class ThresholdError(ValueError):
    """No threshold exists (an existence inequality fails) or none was found."""


@dataclass
class ThresholdResult:
    parameter: str
    lo: float
    hi: float
    value: float
    lambda_at_value: float
    iterations: int
    evaluations: int  # eigenvalue solves (lambda_of calls) the search made


def classify(params: model.ModelParams, *, lam: float | None = None, **eigen_opts) -> str:
    """Persist / extinct / critical by the sign of lambda, with the dead band
    |lambda| <= CRITICAL_BAND.

    Pass lam to reuse an eigenvalue computed elsewhere. eigen_opts are
    forwarded to lambda_of, whose box-ladder keywords do not change its
    value; the benchmark's classify workload passes them.
    """
    if lam is None:
        lam = lambda_of(params, **eigen_opts)
    if lam < -CRITICAL_BAND:
        return PERSIST
    if lam > CRITICAL_BAND:
        return EXTINCT
    return CRITICAL


def _with_value(params: model.ModelParams, which: str, value: float) -> model.ModelParams:
    if which == "delta":
        return replace(params, migration=model.Symmetric(value))
    if which == "m_D":
        return params.with_m_D(value)
    if which == "mu":
        return replace(params, mu=value)
    if which == "rmax":
        return replace(params, rmax1=value, rmax2=value)
    raise ValueError(f"unknown threshold parameter {which!r}; expected one of {_PARAMETERS}")


def _check_existence(params: model.ModelParams, which: str) -> tuple[float, float]:
    """Validate the existence inequalities; return a starting (lo, hi) bracket.

    params must be mirror-symmetric (find_threshold checks).
    """
    n, mu, rmax = params.n, params.mu, params.rmax1
    load = 0.5 * mu * n  # mutation load: lambda -> -rmax + load as delta -> 0
    m_d = params.m_D
    delta = params.migration.delta

    if which == "delta":
        if m_d <= 0:
            raise ThresholdError(
                "no critical delta: m_D = 0 makes lambda independent of delta")
        if not (load < rmax):
            raise ThresholdError(
                f"no critical delta: requires mu*n/2 < rmax, but {load:.6g} >= {rmax:.6g} "
                "(extinct at every migration rate)")
        if not (rmax < load + 0.25 * m_d):
            raise ThresholdError(
                f"no critical delta: requires rmax < mu*n/2 + m_D/4, but {rmax:.6g} >= "
                f"{load + 0.25 * m_d:.6g} (persists at every migration rate)")
        lo = rmax - load  # theory: the critical delta exceeds rmax - mu*n/2
        return lo, 4.0 * lo
    if which == "m_D":
        if not (load < rmax):
            raise ThresholdError(
                f"no critical m_D: requires mu*n/2 < rmax, but {load:.6g} >= {rmax:.6g}")
        if not (rmax < load + delta):
            raise ThresholdError(
                f"no critical m_D: requires rmax < mu*n/2 + delta, but {rmax:.6g} >= "
                f"{load + delta:.6g} (persists at every habitat difference)")
        lo = 4.0 * (rmax - load)  # theory: the critical m_D exceeds this
        return lo, 4.0 * lo
    if which == "mu":
        floor = delta - delta * delta / m_d if m_d > 2.0 * delta else 0.25 * m_d  # >= 0
        if not (rmax > floor):
            raise ThresholdError(
                f"no critical mu: requires rmax > {floor:.6g}, got {rmax:.6g}: lambda >= "
                f"{floor - rmax:.6g} at every mu (extinct at every mutation scale)")
        hi = 2.0 * rmax / n  # lambda >= 0 here (equality when m_D = 0)
        lo = 2.0 * (rmax - min(delta, 0.25 * m_d)) / n
        if lo <= 0:
            lo = 0.25 * hi  # expansion below confirms the small-mu side
        return lo, hi
    raise ValueError(f"unknown threshold parameter {which!r}; expected one of {_PARAMETERS}")


def find_threshold(params: model.ModelParams, which: str, *,
                   tol_lambda: float = 1e-4) -> ThresholdResult:
    """Find the parameter value where lambda crosses zero.

    delta, m_D and mu: starting from the (lo, hi) of the existence
    inequalities, lo is halved while lambda(lo) >= 0 and hi doubled
    while lambda(hi) < 0, then false position narrows [lo, hi] to 1e-14 and
    returns its end of smaller |lambda|. The result's lo, hi are that last
    bracket, lambda(lo) < 0 <= lambda(hi); iterations counts the lambda
    solves inside the first. rmax needs no bracket: lambda_of adds -rmax to
    the eigenvalue of a Hermite matrix that does not depend on it, so the
    crossing is rmax + lambda(params) to rounding, returned with
    iterations = 0, lo = hi = value and a fresh lambda there.

    Args:
        params: baseline model; the searched parameter's entry is ignored
            (rmax reads it as the reference height).
        which: one of "delta", "m_D", "mu", "rmax".
        tol_lambda: acceptance bar: |lambda(value)| above it (lambda jumps
            there rather than crossing) is an error, not a threshold.

    Raises:
        ThresholdError: existence inequality fails, no sign change is found
            in 60 bracket moves, or |lambda(value)| > tol_lambda.
    """
    if not hermite.is_mirror(params):
        raise ThresholdError("threshold search requires Symmetric migration and rmax1 == rmax2")
    if which == "rmax":
        value = params.rmax1 + lambda_of(params)
        f_value = lambda_of(_with_value(params, which, value))
        return ThresholdResult(parameter=which, lo=value, hi=value, value=value,
                               lambda_at_value=f_value, iterations=0, evaluations=2)
    lo, hi = _check_existence(params, which)

    @functools.cache
    def lam_at(v: float) -> float:
        return lambda_of(_with_value(params, which, v))

    # An end on the wrong side of the crossing becomes the other end.
    for _ in range(60):
        if lam_at(lo) >= 0:
            lo, hi = 0.5 * lo, lo
        elif lam_at(hi) < 0:
            lo, hi = hi, 2.0 * hi
        else:
            break
    else:
        raise ThresholdError(f"no sign change in lambda over {which} in [{lo:.3g}, {hi:.3g}]")

    bracketed = lam_at.cache_info().misses
    # Pegasus false position: an end kept twice running has its lambda scaled
    # down (M. Dowell and P. Jarratt, BIT 12, 1972, 503-508).
    f_lo, f_hi, moved = lam_at(lo), lam_at(hi), 0
    tol = 1e-14 + 1e-15 * hi
    while hi - lo > tol:
        # a step of at least tol / 2 from either end lets the far end close in
        value = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        value = min(max(value, lo + 0.5 * tol), hi - 0.5 * tol)
        if (f := lam_at(value)) < 0:
            lo, f_lo, f_hi = value, f, f_hi * (f_lo / (f_lo + f) if moved < 0 else 1.0)
        else:
            hi, f_hi, f_lo = value, f, f_lo * (f_hi / (f_hi + f) if moved > 0 else 1.0)
        moved = -1 if f < 0 else 1
    value = min(lo, hi, key=lambda v: abs(lam_at(v)))
    f_value = lam_at(value)
    if not abs(f_value) <= tol_lambda:
        raise ThresholdError(f"lambda jumps across {which} = {value:.12g}: "
                             f"|lambda| = {abs(f_value):.3g} > tol_lambda = {tol_lambda:.3g}")
    evaluations = lam_at.cache_info().misses
    return ThresholdResult(parameter=which, lo=lo, hi=hi, value=value,
                           lambda_at_value=f_value, iterations=evaluations - bracketed,
                           evaluations=evaluations)
