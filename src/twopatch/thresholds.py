"""Critical-parameter search on the principal eigenvalue's sign.

The principal eigenvalue lambda is monotone in each of delta, m_D, mu
(nondecreasing) and rmax (decreasing, slope exactly -1), so persistence
boundaries are single sign changes and bisection is reliable. Before
searching, the closed-form existence inequalities for the requested
parameter are checked so a hopeless search fails with the inequality that
rules it out rather than with a bracket-expansion timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import hermite, model
from .eigen import lambda_of

PERSIST = "persist"
EXTINCT = "extinct"
CRITICAL = "critical"

_PARAMETERS = ("delta", "m_D", "mu", "rmax")


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


def classify(params: model.ModelParams, *, tol: float = 1e-6,
             lam: float | None = None, **eigen_opts) -> str:
    """Persist / extinct / critical by the sign of lambda with a dead band.

    Pass lam to reuse an eigenvalue computed elsewhere. eigen_opts are
    forwarded to lambda_of, whose box-ladder keywords do not change its
    value; the benchmark's classify workload passes them.
    """
    if lam is None:
        lam = lambda_of(params, **eigen_opts)
    if lam < -tol:
        return PERSIST
    if lam > tol:
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
    """Validate the existence inequalities; return a certified (lo, hi) bracket.

    params must be mirror-symmetric (find_threshold checks). lo always sits
    on the persistence side (lambda < 0) and hi on the extinction side when
    theory certifies one; otherwise hi is a starting point for geometric
    expansion.
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
        if not (rmax > 0):
            raise ThresholdError(f"no critical mu: requires rmax > 0, got {rmax:.6g}")
        hi = 2.0 * rmax / n  # lambda >= 0 here (equality when m_D = 0)
        lo = 2.0 * (rmax - min(delta, 0.25 * m_d)) / n
        if lo <= 0:
            lo = 0.25 * hi  # expansion below confirms the small-mu side
        return lo, hi
    raise ValueError(f"unknown threshold parameter {which!r}; expected one of {_PARAMETERS}")


def find_threshold(params: model.ModelParams, which: str, bracket=None, *,
                   tol_lambda: float = 1e-4, max_iter: int = 40) -> ThresholdResult:
    """Find the parameter value where lambda crosses zero.

    delta, m_D and mu are bisected. rmax needs no bracket: lambda_of adds
    -rmax to the eigenvalue of a Hermite matrix that does not depend on it,
    so lambda(rmax') = lambda(rmax) - (rmax' - rmax) holds to rounding and
    the crossing is rmax + lambda(params), returned with iterations = 0,
    lo = hi = value and a fresh lambda there.

    Args:
        params: baseline model; the searched parameter's entry is ignored
            (rmax reads it as the reference height).
        which: one of "delta", "m_D", "mu", "rmax".
        bracket: optional (lo, hi) with lo on the lambda < 0 side; defaults
            to the certified bracket from the existence inequalities.
        tol_lambda: stop once |lambda(mid)| <= tol_lambda.
        max_iter: bisection cap.

    Raises:
        ThresholdError: existence inequality fails, or no sign change is
            found after geometric bracket expansion.
    """
    if not hermite.is_mirror(params):
        raise ThresholdError("threshold search requires Symmetric migration and rmax1 == rmax2")
    if which == "rmax":
        value = params.rmax1 + lambda_of(params)
        f_value = lambda_of(_with_value(params, which, value))
        return ThresholdResult(parameter=which, lo=value, hi=value, value=value,
                               lambda_at_value=f_value, iterations=0, evaluations=2)
    lo_cert, hi0 = _check_existence(params, which)
    lo, hi = bracket if bracket is not None else (lo_cert, hi0)
    if not (lo > 0 and hi > 0):
        raise ValueError(f"bracket must be positive, got ({lo!r}, {hi!r})")

    def lam_at(v: float) -> float:
        return lambda_of(_with_value(params, which, v))

    f_lo = lam_at(lo)
    f_hi = lam_at(hi)
    evaluations = 2
    # lo is meant to sit on the persistence side; expand geometrically
    # toward 0 / infinity until the bracket actually straddles the crossing.
    for _ in range(60):
        if f_lo < 0:
            break
        lo /= 2.0
        f_lo = lam_at(lo)
        evaluations += 1
    else:
        raise ThresholdError(f"no sign change: lambda stays >= 0 down to {which} = {lo:.3g}")
    for _ in range(60):
        if f_hi >= 0:
            break
        hi *= 2.0
        f_hi = lam_at(hi)
        evaluations += 1
    else:
        raise ThresholdError(f"no sign change: lambda stays < 0 up to {which} = {hi:.3g}")

    value, f_value = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        f_mid = lam_at(mid)
        evaluations += 1
        if abs(f_mid) <= abs(f_value):
            value, f_value = mid, f_mid
        if abs(f_mid) <= tol_lambda:
            break
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            break

    return ThresholdResult(parameter=which, lo=lo, hi=hi, value=value,
                           lambda_at_value=f_value, iterations=iterations,
                           evaluations=evaluations)
