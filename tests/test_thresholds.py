import math

import pytest

from twopatch import eigen, model, thresholds


def base_params(delta=0.02, rmax=1.0 / 18.0, mu=0.1, beta=0.5):
    return model.ModelParams(n=1, mu=mu, rmax1=rmax, rmax2=rmax, beta=beta,
                             migration=model.Symmetric(delta))


def test_classify_sign_rule_with_dead_band():
    p = base_params()
    assert thresholds.classify(p, lam=-0.01) == thresholds.PERSIST
    assert thresholds.classify(p, lam=0.01) == thresholds.EXTINCT
    assert thresholds.classify(p, lam=3e-7) == thresholds.CRITICAL
    assert thresholds.classify(p, lam=-3e-7) == thresholds.CRITICAL
    band = thresholds.CRITICAL_BAND
    assert thresholds.classify(p, lam=band) == thresholds.CRITICAL
    assert thresholds.classify(p, lam=-band) == thresholds.CRITICAL
    assert thresholds.classify(p, lam=math.nextafter(band, 1.0)) == thresholds.EXTINCT
    assert thresholds.classify(p, lam=math.nextafter(-band, -1.0)) == thresholds.PERSIST


def test_classify_computes_lambda_when_not_given():
    assert thresholds.classify(base_params(beta=0.0)) == thresholds.PERSIST
    # heavier mutation load than peak fitness: doomed at any migration rate
    assert thresholds.classify(base_params(mu=0.3)) == thresholds.EXTINCT


def assert_straddles(p, res):
    # the reported bracket really does straddle the sign change
    assert res.lo <= res.value <= res.hi
    assert eigen.lambda_of(thresholds._with_value(p, res.parameter, res.lo)) < 0
    assert eigen.lambda_of(thresholds._with_value(p, res.parameter, res.hi)) >= 0


def test_delta_threshold_properties():
    p = base_params()
    res = thresholds.find_threshold(p, "delta")
    assert res.parameter == "delta"
    assert abs(res.lambda_at_value) <= 1e-12
    assert res.iterations <= 40
    # certified side: the crossing lies above rmax - mu*n/2
    assert res.value > p.rmax1 - 0.5 * p.mu * p.n
    assert_straddles(p, res)
    at_value = thresholds._with_value(p, "delta", res.value)
    assert thresholds.classify(at_value) == thresholds.CRITICAL


def test_m_d_threshold_properties():
    p = base_params()
    res = thresholds.find_threshold(p, "m_D")
    assert abs(res.lambda_at_value) <= 1e-12
    assert res.value > 4.0 * (p.rmax1 - 0.5 * p.mu * p.n)
    assert_straddles(p, res)
    # more habitat divergence than the crossing: extinct; less: persists
    assert thresholds.classify(p.with_m_D(4.0 * res.value)) == thresholds.EXTINCT
    assert thresholds.classify(p.with_m_D(0.25 * res.value)) == thresholds.PERSIST


def test_mu_threshold_properties():
    p = base_params()
    res = thresholds.find_threshold(p, "mu")
    assert abs(res.lambda_at_value) <= 1e-12
    assert 0.0 < res.value < 2.0 * p.rmax1 / p.n
    assert_straddles(p, res)


def test_rmax_threshold_matches_unit_slope_identity():
    # lambda(rmax) = lambda(r0) - (rmax - r0), so the crossing can be
    # predicted from a single eigenvalue at any reference height
    p = base_params()
    r0 = 0.2
    lam0 = eigen.lambda_of(thresholds._with_value(p, "rmax", r0))
    res = thresholds.find_threshold(p, "rmax")
    assert abs(res.lambda_at_value) <= 1e-12
    assert res.value == pytest.approx(r0 + lam0, abs=1.5e-4)


@pytest.mark.parametrize("which", ["delta", "rmax"])
def test_evaluations_count_every_eigen_solve(which, monkeypatch):
    calls = []

    def counted(params, **kwargs):
        calls.append(params)
        return eigen.lambda_of(params, **kwargs)

    monkeypatch.setattr(thresholds, "lambda_of", counted)
    res = thresholds.find_threshold(base_params(), which)
    assert res.evaluations == len(calls)
    assert res.evaluations >= res.iterations + 2


def test_lambda_jump_fails_the_acceptance_bar(monkeypatch):
    # lambda changes sign at delta = 0.03 but is never near 0 there
    monkeypatch.setattr(thresholds, "lambda_of",
                        lambda params, **kwargs: -1.0 if params.migration.delta < 0.03 else 1.0)
    with pytest.raises(thresholds.ThresholdError, match="tol_lambda"):
        thresholds.find_threshold(base_params(), "delta")


def test_no_delta_threshold_without_habitat_difference():
    with pytest.raises(thresholds.ThresholdError, match="independent of delta"):
        thresholds.find_threshold(base_params(beta=0.0), "delta")


def test_no_delta_threshold_when_load_exceeds_peak():
    # mu*n/2 = 0.15 >= rmax: extinct everywhere
    with pytest.raises(thresholds.ThresholdError, match="extinct at every migration rate"):
        thresholds.find_threshold(base_params(mu=0.3), "delta")


def test_no_delta_threshold_when_always_persisting():
    # rmax above mu*n/2 + m_D/4: migration can never push lambda to zero
    with pytest.raises(thresholds.ThresholdError, match="persists at every migration rate"):
        thresholds.find_threshold(base_params(rmax=0.4), "delta")


def test_no_m_d_threshold_cases():
    with pytest.raises(thresholds.ThresholdError, match="no critical m_D"):
        thresholds.find_threshold(base_params(mu=0.3), "m_D")
    with pytest.raises(thresholds.ThresholdError, match="persists at every habitat difference"):
        thresholds.find_threshold(base_params(rmax=0.4, delta=0.01), "m_D")


def test_no_mu_threshold_for_nonpositive_peak():
    with pytest.raises(thresholds.ThresholdError, match="requires rmax > 0"):
        thresholds.find_threshold(base_params(rmax=-0.1), "mu")


def test_no_mu_threshold_when_migration_fitness_bound_is_nonnegative():
    # lambda >= delta - rmax - delta^2/m_D = 0.072 at every mu; the search
    # used to halve mu until the Hermite basis ran out (EigenError)
    p = model.ModelParams(n=2, mu=0.1, rmax1=0.12, rmax2=0.12, beta=math.sqrt(0.6),
                          migration=model.Symmetric(0.24))
    with pytest.raises(thresholds.ThresholdError, match="extinct at every mutation scale"):
        thresholds.find_threshold(p, "mu")


def test_threshold_requires_mirror_symmetric_model():
    p = model.ModelParams(n=1, mu=0.1, rmax1=1.0 / 18.0, rmax2=1.0 / 18.0, beta=0.5,
                          migration=model.General(0.02, 0.02, 0.02, 0.02))
    with pytest.raises(thresholds.ThresholdError, match="Symmetric migration"):
        thresholds.find_threshold(p, "delta")


def test_unknown_parameter_name():
    with pytest.raises(ValueError, match="unknown threshold parameter"):
        thresholds.find_threshold(base_params(), "beta")
