import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import expit

from aclab import ThermoParams, c_mu_t, fermi, fermi_derivative_neg, pair_weight
from aclab.thermo import grand_potential

finite_energy = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)
# Up to +-1e308 and +-inf, weighted toward the range where e^-x overflows.
any_exponent = st.one_of(st.floats(min_value=-1e308, max_value=1e308),
                         st.floats(min_value=-800.0, max_value=800.0),
                         st.sampled_from([np.inf, -np.inf]))


def _logistic_oracle(x):
    """expit(x), but e^x below x = -700, where the two agree to 1e-304 relative
    and expit flushes to 0 from x = -709.8 on."""
    return np.where(x < -700.0, np.exp(np.minimum(x, -700.0)), expit(x))


def test_fermi_midpoint():
    assert fermi(0.0, ThermoParams(1.0, 0.0)) == 0.5


def test_fermi_step_branch():
    p = ThermoParams(0.0, 0.3)
    assert fermi(0.3, p) == 1.0
    assert fermi(0.3 + 1e-12, p) == 0.0
    assert fermi(-5.0, p) == 1.0


def test_fermi_saturates_without_overflow():
    p = ThermoParams(1.0, 0.0)
    with np.errstate(over="raise"):
        assert fermi(700.0, p) == pytest.approx(0.0, abs=1e-300)
        assert fermi(1000.0, p) == 0.0
        assert fermi(-700.0, p) == 1.0


@pytest.mark.parametrize("temperature", [0.0, 0.05, 1.0, 16.0])
def test_grand_potential_integrates_the_fermi_function(temperature):
    # G(b) - G(a) = int_a^b f(E) dE, with no overflow far from mu
    p = ThermoParams(temperature, 0.3)
    for a, b in [(-3.0, -1.0), (-1.0, 0.2), (0.5, 4.0), (-2.0, 2.0)]:
        integral, _ = quad(lambda e: fermi(e, p), a, b, points=[0.3], epsabs=1e-12)
        assert grand_potential(b, p) - grand_potential(a, p) == pytest.approx(integral, abs=1e-10)
    assert np.all(np.isfinite(grand_potential(np.array([-1e308, 1e308]), p)))


def test_derivative_peak_value():
    p = ThermoParams(0.25, 1.5)
    assert fermi_derivative_neg(1.5, p) == pytest.approx(1.0 / (4 * 0.25), rel=1e-14)


def test_derivative_integrates_to_one():
    p = ThermoParams(0.7, -0.4)
    value, _ = quad(lambda e: fermi_derivative_neg(e, p), -60, 60, epsabs=1e-12)
    assert value == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("temperature, mu", [(0.05, 0.3), (0.7, -0.4), (16.0, 0.0)])
@pytest.mark.parametrize("a, b", [(-2.0, -1.9), (-1.0, 0.35), (0.25, 0.3500001),
                                  (0.4, 3.0), (-4.0, 4.0)])
def test_derivative_integrates_to_the_fermi_and_half_tanh_differences(
        temperature, mu, a, b):
    # verify's convolution check integrates (-f)' over eigenvalue gaps by the
    # half-tanh form; both must agree with f itself
    p = ThermoParams(temperature, mu)
    value, _ = quad(lambda e: fermi_derivative_neg(e, p), a, b,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    half_tanh = 0.5 * (np.tanh((b - mu) / (2 * temperature))
                       - np.tanh((a - mu) / (2 * temperature)))
    assert value == pytest.approx(fermi(a, p) - fermi(b, p), abs=1e-13)
    assert value == pytest.approx(half_tanh, abs=1e-13)


def test_derivative_even_about_mu():
    p = ThermoParams(0.5, 2.0)
    x = np.linspace(0.0, 8.0, 33)
    assert np.allclose(fermi_derivative_neg(2.0 + x, p),
                       fermi_derivative_neg(2.0 - x, p), rtol=1e-13)


def test_derivative_rejects_t_zero():
    with pytest.raises(ValueError):
        fermi_derivative_neg(0.0, ThermoParams(0.0, 0.0))


def _assert_near(actual, expected, eps_count):
    """|actual - expected| <= eps_count * eps * |expected|, plus one subnormal spacing."""
    gap = np.abs(actual - expected)
    allowed = eps_count * np.finfo(float).eps * np.abs(expected) + np.spacing(0.0)
    assert np.all(gap <= allowed), (actual, expected)


@settings(max_examples=300, deadline=None)
@given(st.lists(any_exponent, min_size=1, max_size=40))
def test_logistic_matches_the_libm_forms(xs):
    # numpy's exp and libm's differ by up to 1 ulp; through 1 / (1 + e^-x) and
    # the rounding of the sum and the quotient in both forms that bounds the
    # gap by 3 eps relative, and the product in (-f)' by 7 eps.
    x = np.array(xs)
    p = ThermoParams(1.0, 0.0)
    _assert_near(fermi(x, p), expit(-x), 3)
    _assert_near(fermi_derivative_neg(x, p), expit(x) * expit(-x), 7)


def test_pair_weight_step_quotient():
    assert pair_weight(np.array([-1.0, 1.0]), 0, 1, ThermoParams(0.0, 0.0)) == 0.5


def test_pair_weight_closed_form_tanh():
    value = pair_weight(np.array([-1.0, 1.0]), 0, 1, ThermoParams(1.0, 0.0))
    assert value == pytest.approx(np.tanh(0.5) / 2.0, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(finite_energy, finite_energy, st.floats(min_value=0.05, max_value=20.0),
       finite_energy)
@example(0.3, 0.3 + 1e-9, 0.05, 0.3)  # at the peak 1/(4T)
@example(0.0, 2.225073858507203e-309, 0.75, 0.0)  # gap / T subnormal
@example(0.0, 3e-308, 20.0, 0.0)  # a normal gap, gap / T subnormal
def test_pair_weight_bounded(e_a, e_b, temperature, mu):
    # the mean-value bound, with no allowance for cancellation: none is formed
    assume(e_a != e_b)
    energies = np.array([min(e_a, e_b), max(e_a, e_b)])
    w = pair_weight(energies, 0, 1, ThermoParams(temperature, mu))
    assert 0.0 <= w <= (1.0 + 8.0 * np.finfo(float).eps) / (4.0 * temperature)


@pytest.mark.parametrize("gap, temperature", [(5e-324, 0.6), (5e-324, 20.0),
                                              (2.225073858507203e-309, 0.75), (3e-308, 20.0)])
def test_pair_weight_keeps_its_digits_where_gap_over_t_is_subnormal(gap, temperature):
    # the quotient is 1/T to 1e-300 there, so f (1 - f) / T = 1/(4T) at E = mu
    w = pair_weight(np.array([0.0, gap]), 0, 1, ThermoParams(temperature, 0.0))
    assert abs(4.0 * temperature * w - 1.0) <= 4.0 * np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_energy, min_size=2, max_size=12, unique=True),
       st.floats(min_value=0.05, max_value=20.0), finite_energy)
@example([-3.9, -3.8], 0.1, 4.0)
@example([0.0, 1.0], 0.05, 35.5)  # expit(-710) flushes to 0, e^-710 does not
def test_pair_weight_matches_the_logistic_difference(levels, temperature, mu):
    # f(E_low) - f(E_high) keeps its digits where f(E_high) is at most half of
    # f(E_low), and so does (1 - f(E_high)) - (1 - f(E_low)) where 1 - f(E_low)
    # is at most half of 1 - f(E_high), as with both levels full.  Both forms
    # round x = (E - mu) / T, so they agree to about |x| eps.
    energies = np.sort(levels)
    low, high = np.nonzero(energies[:, None] < energies[None, :])
    x = (energies - mu) / temperature
    full, empty = _logistic_oracle(-x), _logistic_oracle(x)
    by_full = full[high] <= 0.5 * full[low]
    by_empty = empty[low] <= 0.5 * empty[high]
    difference = np.where(by_full, full[low] - full[high], empty[high] - empty[low])
    kept = (by_full | by_empty) & (difference > 1e-300)
    low, high = low[kept], high[kept]
    expected = difference[kept] / (energies[high] - energies[low])
    w = pair_weight(energies, low, high, ThermoParams(temperature, mu))
    assert np.all(np.abs(w - expected) <= 1e-12 * expected)


@settings(max_examples=100, deadline=None)
@given(finite_energy, finite_energy, st.floats(min_value=0.05, max_value=5.0))
def test_fermi_monotone_nonincreasing(e_lo, e_hi, temperature):
    p = ThermoParams(temperature, 0.3)
    lo, hi = min(e_lo, e_hi), max(e_lo, e_hi)
    f_lo, f_hi = fermi(lo, p), fermi(hi, p)
    assert 0.0 <= f_hi <= f_lo <= 1.0


def test_pair_weight_equals_quadrature_of_step_weights():
    # the thermal quotient is the (-f)' average of zero-temperature quotients
    p = ThermoParams(0.6, 0.2)
    energies = np.array([-0.7, 1.3])
    direct = pair_weight(energies, 0, 1, p)

    def integrand(level):
        step = ThermoParams(0.0, level)
        return fermi_derivative_neg(level, p) * pair_weight(energies, 0, 1, step)

    value, _ = quad(integrand, -40, 40, epsabs=1e-13, limit=200,
                    points=list(energies))
    assert value == pytest.approx(direct, abs=1e-9)


def test_c_mu_t_endpoint_value():
    p = ThermoParams(4.0, 0.0)
    value = c_mu_t(p, (-2.0, 2.0))
    assert value == pytest.approx(1.0 / np.cosh(0.5) ** 2, rel=1e-12)


def test_c_mu_t_high_temperature_limit():
    assert c_mu_t(ThermoParams(1e9, 0.0), (-2.0, 2.0)) == pytest.approx(1.0, abs=1e-12)


def test_c_mu_t_decreases_as_mu_leaves_interval():
    bounds = (-3.0, 3.0)
    values = [c_mu_t(ThermoParams(2.0, mu), bounds) for mu in (0.0, 2.0, 5.0, 9.0)]
    assert np.all(np.diff(values) < 0)


def test_c_mu_t_in_unit_interval_and_below_derivative_inf():
    # c = 2 never exceeds the actual minimum of 4T (-f)' over the bounds
    p = ThermoParams(0.8, 0.6)
    bounds = (-2.5, 3.1)
    c2 = c_mu_t(p, bounds)
    assert 0.0 < c2 <= 1.0
    grid = np.linspace(bounds[0], bounds[1], 2001)
    inf_scaled = (4.0 * p.temperature * fermi_derivative_neg(grid, p)).min()
    assert c2 <= inf_scaled * (1 + 1e-12)


def test_c_mu_t_validation():
    with pytest.raises(ValueError):
        c_mu_t(ThermoParams(0.0, 0.0), (-2.0, 2.0))


def test_thermo_params_validation():
    with pytest.raises(ValueError):
        ThermoParams(-0.1, 0.0)
