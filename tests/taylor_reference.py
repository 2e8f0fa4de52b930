"""High-precision reference masses for the mu = 2e-3 mirror solves.

For each m_D it builds the float64 problem integrate_to solves on the
habitat-swap-even half: the K x K Galerkin matrix A, the data y0 and the
mass row m0, at the K the solve picks. It then sums the Taylor series of
m0 . e^(-t A) y0 in mpmath, exactly for those float64 inputs, at the time
of the solve's last record (its extinction record, or t_end). The series
runs on A - c I, c the centre of A's Gershgorin interval, with e^(-c t)
factored out, and at two precisions that both cover the series' cancellation;
the script refuses to print when they disagree beyond 1e-25.

Run from the repository root (about 20 s on one x86 core):

    PYTHONPATH=src python tests/taylor_reference.py

tests/test_pde.py::test_mu_2e3_solves_match_the_taylor_reference stores its
output. mpmath is needed here only, never by the tests.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from twopatch import cli, hermite, pde

M_D = (0.5, 1.0, 1.5, 2.0)


def problem(m_d: float):
    """(t, A's diagonal, A's off-diagonal, y0, m0) of the solve at mu = 2e-3 and m_D."""
    config = cli.ExperimentConfig(mu=2e-3, m_D=m_d)
    params = cli.to_model_params(config)
    state0 = cli.initial_state(config, params)
    traj, _ = pde.integrate_to(params, state0, cli.solver_config(config))
    size, c1, c2 = pde._data_coefficients(params.mu, state0, hermite.smallest(params)[1])
    band = hermite.galerkin(params, size)
    sign = (-1.0) ** np.arange(size)
    return (float(traj.t[-1]), hermite.with_constant(params, band[0]), band[1, :-1],
            0.5 * (c1 + sign * c2), hermite.moments(params.mu, size)[0])


def taylor_mass(t: float, diag, off, y0, m0, dps: int) -> mpmath.mpf:
    """m0 . e^(-t A) y0 for the symmetric tridiagonal A = (diag, off), at dps digits."""
    with mpmath.workdps(dps):
        d, e = [mpmath.mpf(float(x)) for x in diag], [mpmath.mpf(float(x)) for x in off]
        radius = [abs(e[k - 1]) if k else 0 for k in range(len(d))]
        for k in range(len(e)):
            radius[k] += abs(e[k])
        lo = min(dk - r for dk, r in zip(d, radius))
        hi = max(dk + r for dk, r in zip(d, radius))
        centre, tt = (lo + hi) / 2, mpmath.mpf(t)
        d = [dk - centre for dk in d]
        term = [mpmath.mpf(float(x)) for x in y0]
        weight = [mpmath.mpf(float(x)) for x in m0]
        total = mpmath.fsum(w * v for w, v in zip(weight, term))
        tol = mpmath.mpf(10) ** (5 - dps)
        n, last = 0, len(d) - 1
        while True:
            n += 1
            # term <- -t (A - c) term / n
            new = [d[k] * term[k] + (e[k - 1] * term[k - 1] if k else 0)
                   + (e[k] * term[k + 1] if k < last else 0) for k in range(len(d))]
            scale = -tt / n
            term = [scale * v for v in new]
            piece = mpmath.fsum(w * v for w, v in zip(weight, term))
            total += piece
            if n > tt * (hi - lo) and abs(piece) < tol * abs(total):
                break
        return mpmath.exp(-centre * tt) * total


def main() -> None:
    for m_d in M_D:
        t, diag, off, y0, m0 = problem(m_d)
        spread = t * float(np.abs(diag).max() + 2 * np.abs(off).max())
        digits = int(spread / math.log(10)) + 30  # the series' cancellation plus a margin
        low, high = (taylor_mass(t, diag, off, y0, m0, dps) for dps in (digits, digits + 40))
        gap = abs(low - high) / abs(high)
        if gap > mpmath.mpf("1e-25"):
            raise SystemExit(f"m_D = {m_d}: precisions {digits} and {digits + 40} differ by {gap}")
        print(f"    ({m_d}, {len(y0)}, {t!r}, {float(high)!r}),  # {digits} and {digits + 40} "
              f"digits agree to {mpmath.nstr(gap, 2)}")


if __name__ == "__main__":
    main()
