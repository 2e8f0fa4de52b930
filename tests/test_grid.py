import math

import numpy as np
import pytest

from twopatch import grid as g


def test_grid_validation():
    with pytest.raises(ValueError, match="dimension"):
        g.build_grid(0, 1.0, 5)
    with pytest.raises(ValueError, match="L must be"):
        g.build_grid(1, 0.0, 5)
    with pytest.raises(ValueError, match="odd"):
        g.build_grid(1, 1.0, 4)
    with pytest.raises(ValueError, match="odd"):
        g.build_grid(2, 1.0, 1)


def test_grid_refuses_a_spacing_that_is_not_a_finite_float():
    # 2L overflows to inf, and an m - 1 past the largest float has no ratio
    for L, m in ((1e308, 5), (math.inf, 5), (1.0, 2 * 10 ** 400 + 1)):
        with pytest.raises(ValueError, match="spacing h = 2L / .m - 1. must be a finite float"):
            g.build_grid(1, L, m)
    assert g.build_grid(1, 1e307, 5).h == 5e306  # large but finite


def test_spacing_shape_size():
    # fields live on the x1 axis whatever the trait dimension
    for n in (1, 2, 3):
        gr = g.build_grid(n, 3.0, 7)
        assert gr.n == n
        assert gr.h == 1.0
        assert gr.shape == (7,)
        assert gr.size == 7


def test_axis_is_bitwise_antisymmetric_with_center_zero():
    gr = g.build_grid(1, 1.7, 23)
    ax = gr.axis()
    assert ax[11] == 0.0
    np.testing.assert_array_equal(ax[::-1], -ax)
    assert ax[0] == -1.7 and ax[-1] == 1.7


def test_laplacian_exact_on_quadratic_interior():
    # Centered second differences are exact on polynomials up to degree 3,
    # so x1^2 must map to the constant 2 away from the boundary nodes.
    for n in (1, 2):
        gr = g.build_grid(n, 2.0, 17)
        x = gr.axis()
        lap = g.laplacian(gr, x * x)
        np.testing.assert_allclose(lap[1:-1], 2.0, rtol=0, atol=1e-11)


def test_laplacian_sees_zero_ghost_nodes():
    gr = g.build_grid(1, 1.0, 5)
    f = np.ones(5)
    lap = g.laplacian(gr, f)
    # interior: 1 + 1 - 2 = 0; edges: 0 + 1 - 2 = -1, over h^2 = 0.25
    np.testing.assert_allclose(lap, [-4.0, 0.0, 0.0, 0.0, -4.0])


def test_gaussian_integral_matches_sqrt_two_pi():
    # trapezoid of exp(-x^2/2) over [-8, 8] at h = 1/8; tails below 1e-15
    gr = g.build_grid(1, 8.0, 129)
    x = gr.axis()
    f = np.exp(-0.5 * x * x)
    assert g.integrate(gr, f) == pytest.approx(2.5066282746310002, abs=1e-6)


def test_quadrature_second_order_on_smooth_field():
    gr1 = g.build_grid(2, 2.0, 21)
    gr2 = g.build_grid(2, 2.0, 41)

    def smooth(gr):
        return np.cos(gr.axis())

    exact = 2.0 * math.sin(2.0)
    e1 = abs(g.integrate(gr1, smooth(gr1)) - exact)
    e2 = abs(g.integrate(gr2, smooth(gr2)) - exact)
    assert e1 / e2 > 3.5  # halving h should shrink the error ~4x


def test_reflect_field_involution_and_symmetry():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        gr = g.build_grid(n, 1.0, 9)
        f = rng.normal(size=gr.shape)
        r = g.reflect_field(gr, f)
        np.testing.assert_array_equal(g.reflect_field(gr, r), f)
        # reflection must be mass-preserving under the trapezoid rule
        assert g.integrate(gr, r) == pytest.approx(g.integrate(gr, f), rel=1e-12)


def test_reflect_field_commutes_with_laplacian_bitwise():
    # both are index-local stencils, so the commutation is exact
    gr = g.build_grid(2, 1.5, 11)
    rng = np.random.default_rng(4)
    f = rng.normal(size=gr.shape)
    a = g.laplacian(gr, g.reflect_field(gr, f))
    b = g.reflect_field(gr, g.laplacian(gr, f))
    np.testing.assert_array_equal(a, b)


def test_field2_shape_check_and_copy():
    with pytest.raises(ValueError, match="shapes differ"):
        g.Field2(np.zeros(3), np.zeros(4))


def test_shape_mismatch_errors():
    gr = g.build_grid(1, 1.0, 5)
    bad = np.zeros(7)
    for fn in (g.laplacian, g.integrate, g.reflect_field):
        with pytest.raises(ValueError, match="does not match"):
            fn(gr, bad)
