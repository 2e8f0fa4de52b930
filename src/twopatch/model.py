"""Parameters and fitness for a two-habitat quadratic-selection model.

A population is structured by an n-dimensional phenotype and lives in two
habitats coupled by migration. Each habitat selects toward its own optimal
phenotype; the two optima sit symmetrically on the first trait axis at
(-beta, 0, ..., 0) and (+beta, 0, ..., 0). Fitness decays quadratically
with distance from the local optimum, so the habitat difference is fully
captured by the single number m_D = 2 * beta**2 (the squared distance
between the optima, halved twice over).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

GROWTH_MALTHUSIAN = "malthusian"
GROWTH_LOGISTIC = "logistic"


@dataclass(frozen=True)
class Symmetric:
    """Two-way migration at a single rate delta (>= 0) in both directions."""

    delta: float

    @property
    def rates(self) -> tuple[float, float, float, float]:
        """(d11, d12, d21, d22): every rate equals delta."""
        return self.delta, self.delta, self.delta, self.delta


@dataclass(frozen=True)
class General:
    """Independent migration rates.

    d11 is the rate of leaving habitat 1, d12 the rate of arrival into
    habitat 1 from habitat 2; d22/d21 mirror this for habitat 2. All >= 0.
    """

    d11: float
    d12: float
    d21: float
    d22: float

    @property
    def rates(self) -> tuple[float, float, float, float]:
        """(d11, d12, d21, d22)."""
        return self.d11, self.d12, self.d21, self.d22


Migration = Symmetric | General


@dataclass(frozen=True)
class ModelParams:
    """Model parameters in the canonical frame (optima on the first axis).

    Args:
        n: phenotype dimension (>= 1).
        mu: mutational scale (> 0); the diffusion coefficient is mu**2 / 2.
        rmax1: fitness at the habitat-1 optimum.
        rmax2: fitness at the habitat-2 optimum.
        beta: half-distance between the optima (>= 0); m_D = 2 * beta**2.
        migration: Symmetric(delta) or General(d11, d12, d21, d22).
        growth: GROWTH_MALTHUSIAN or GROWTH_LOGISTIC. Logistic growth is
            only defined for Symmetric migration with rmax1 == rmax2.
    """

    n: int
    mu: float
    rmax1: float
    rmax2: float
    beta: float
    migration: Migration
    growth: str = GROWTH_MALTHUSIAN

    def __post_init__(self) -> None:
        errors = []
        if not isinstance(self.n, int) or self.n < 1:
            errors.append(f"n must be an integer >= 1, got {self.n!r}")
        if not (self.mu > 0) or not math.isfinite(self.mu):
            errors.append(f"mu must be a finite positive real, got {self.mu!r}")
        for name in ("rmax1", "rmax2"):
            if not math.isfinite(getattr(self, name)):
                errors.append(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.beta >= 0) or not math.isfinite(self.beta):
            errors.append(f"beta must be a finite real >= 0, got {self.beta!r}")
        if isinstance(self.migration, Symmetric):
            if not (self.migration.delta >= 0) or not math.isfinite(self.migration.delta):
                errors.append(f"Symmetric.delta must be >= 0, got {self.migration.delta!r}")
        elif isinstance(self.migration, General):
            for name in ("d11", "d12", "d21", "d22"):
                v = getattr(self.migration, name)
                if not (v >= 0) or not math.isfinite(v):
                    errors.append(f"General.{name} must be >= 0, got {v!r}")
        else:
            errors.append(f"migration must be Symmetric or General, got {self.migration!r}")
        if self.growth not in (GROWTH_MALTHUSIAN, GROWTH_LOGISTIC):
            errors.append(f"growth must be {GROWTH_MALTHUSIAN!r} or {GROWTH_LOGISTIC!r}, got {self.growth!r}")
        if self.growth == GROWTH_LOGISTIC:
            if not isinstance(self.migration, Symmetric):
                errors.append("logistic growth requires Symmetric migration")
            if self.rmax1 != self.rmax2:
                errors.append("logistic growth requires rmax1 == rmax2")
        if errors:
            raise ValueError("invalid ModelParams: " + "; ".join(errors))

    @property
    def m_D(self) -> float:
        """Habitat difference 2 * beta**2."""
        return 2.0 * self.beta * self.beta

    def rmax(self, habitat: int) -> float:
        _check_habitat(habitat)
        return self.rmax1 if habitat == 1 else self.rmax2

    def with_m_D(self, m_d: float) -> "ModelParams":
        """Copy of the parameters with the habitat difference set to m_d."""
        return replace(self, beta=beta_of(m_d))


def _check_habitat(habitat: int) -> None:
    if habitat not in (1, 2):
        raise ValueError(f"habitat must be 1 or 2, got {habitat!r}")


def as_phenotype(x, n: int) -> np.ndarray:
    """Validate x as a phenotype array of shape (..., n) and return it as float64."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 and n == 1:
        arr = arr.reshape(1)
    if arr.shape[-1:] != (n,):
        raise ValueError(f"phenotype must have {n} trait(s) on the last axis, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("phenotype entries must be finite")
    return arr


def fitness(params: ModelParams, habitat: int, x) -> np.ndarray | float:
    """Fitness r_i(x) = rmax_i - ||x - O_i||^2 / 2 in the given habitat.

    Accepts a single phenotype of shape (n,) or a batch of shape (..., n);
    returns a float or an array of shape (...) accordingly.
    """
    _check_habitat(habitat)
    arr = as_phenotype(x, params.n)
    sq = np.square(arr[..., 0] - (-params.beta if habitat == 1 else params.beta))
    if params.n > 1:
        sq = sq + np.sum(np.square(arr[..., 1:]), axis=-1)
    r = params.rmax(habitat) - 0.5 * sq
    return float(r) if r.ndim == 0 else r


def beta_of(m_d: float) -> float:
    """Inverse of ModelParams.m_D: the beta >= 0 with 2 * beta**2 = m_d."""
    if m_d < 0:
        raise ValueError(f"m_D must be >= 0, got {m_d!r}")
    return math.sqrt(0.5 * m_d)
