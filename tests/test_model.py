import math

import numpy as np
import pytest

from twopatch import model


FIG_RMAX = 1.0 / 18.0
FIG_MU = math.sqrt(1.0 / 1800.0)


def ref_params(n=2, beta=0.5, delta=0.05, growth=model.GROWTH_MALTHUSIAN):
    return model.ModelParams(n=n, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=FIG_RMAX,
                             beta=beta, migration=model.Symmetric(delta),
                             growth=growth)


def test_fitness_at_origin_matches_hand_value():
    # rmax - beta^2/2 = 1/18 - 1/8 = -5/72, worked out by hand with fractions
    p = ref_params()
    assert model.fitness(p, 1, [0.0, 0.0]) == pytest.approx(-5.0 / 72.0, abs=1e-15)
    assert model.fitness(p, 2, [0.0, 0.0]) == pytest.approx(-5.0 / 72.0, abs=1e-15)


def test_fitness_peaks_at_own_optimum():
    p = ref_params()
    assert model.fitness(p, 1, [-0.5, 0.0]) == FIG_RMAX  # optima at (-+beta, 0), beta = 0.5
    assert model.fitness(p, 2, [0.5, 0.0]) == FIG_RMAX
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 2))
    assert np.all(model.fitness(p, 1, pts) <= FIG_RMAX)


def test_fitness_difference_is_linear_in_first_trait():
    # r1(x) - r2(x) = rmax1 - rmax2 - 2*beta*x1: the quadratic terms cancel.
    p = model.ModelParams(n=2, mu=0.1, rmax1=0.3, rmax2=0.1, beta=0.7,
                          migration=model.Symmetric(1.0))
    rng = np.random.default_rng(11)
    x = rng.normal(scale=2.0, size=(200, 2))
    got = model.fitness(p, 1, x) - model.fitness(p, 2, x)
    want = (0.3 - 0.1) - 2.0 * 0.7 * x[:, 0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_fitness_mirror_symmetry():
    p = ref_params()
    rng = np.random.default_rng(7)
    x = rng.normal(size=(100, 2))
    mirrored = x * np.array([-1.0, 1.0])  # x1 -> -x1, an exact sign flip
    np.testing.assert_array_equal(model.fitness(p, 2, x), model.fitness(p, 1, mirrored))


def test_habitat_difference_round_trip():
    for m_d in (0.0, 0.125, 0.5, 2.0, 13.7):
        assert ref_params(beta=model.beta_of(m_d)).m_D == pytest.approx(m_d, rel=1e-15)
    assert model.beta_of(0.5) == 0.5  # exact: sqrt(0.25)
    with pytest.raises(ValueError):
        model.beta_of(-0.1)


def test_m_d_property_and_with_m_d():
    p = ref_params(beta=0.5)
    assert p.m_D == 0.5
    q = p.with_m_D(2.0)
    assert q.beta == 1.0
    assert q.mu == p.mu and q.migration == p.migration


def test_validation_collects_every_failure_at_once():
    with pytest.raises(ValueError) as exc:
        model.ModelParams(n=0, mu=-1.0, rmax1=math.nan, rmax2=0.0, beta=-2.0,
                          migration=model.Symmetric(-1.0), growth="exponential")
    msg = str(exc.value)
    for fragment in ("n must be", "mu must be", "rmax1 must be", "beta must be",
                     "delta must be", "growth must be"):
        assert fragment in msg


def test_logistic_requires_mirror_habitats():
    with pytest.raises(ValueError, match="rmax1 == rmax2"):
        model.ModelParams(n=1, mu=0.1, rmax1=0.2, rmax2=0.1, beta=0.5,
                          migration=model.Symmetric(0.1), growth=model.GROWTH_LOGISTIC)
    with pytest.raises(ValueError, match="Symmetric migration"):
        model.ModelParams(n=1, mu=0.1, rmax1=0.2, rmax2=0.2, beta=0.5,
                          migration=model.General(0.1, 0.1, 0.1, 0.1),
                          growth=model.GROWTH_LOGISTIC)


def test_general_migration_accepts_zero_rates():
    p = model.ModelParams(n=1, mu=0.1, rmax1=0.0, rmax2=0.0, beta=0.0,
                          migration=model.General(0.0, 0.0, 0.5, 0.2))
    assert p.migration.d21 == 0.5


def test_symmetric_delta_must_be_positive():
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            ref_params(delta=bad)
    assert ref_params(delta=0.0).migration.rates == (0.0, 0.0, 0.0, 0.0)


def test_as_phenotype_shapes():
    assert model.as_phenotype(1.0, 1).shape == (1,)
    assert model.as_phenotype([[1.0, 2.0]] * 3, 2).shape == (3, 2)
    with pytest.raises(ValueError, match="trait"):
        model.as_phenotype([1.0, 2.0, 3.0], 2)
    with pytest.raises(ValueError, match="finite"):
        model.as_phenotype([math.inf, 0.0], 2)


def test_optimum_and_rmax_check_habitat_index():
    p = ref_params()
    with pytest.raises(ValueError, match="habitat"):
        p.rmax(3)
    with pytest.raises(ValueError, match="habitat"):
        model.fitness(p, 0, [0.0, 0.0])
