import math

import numpy as np
import pytest

from nematic2d import (DirectorField2D, Grid2D, ScalarField2D, SimState,
                       VectorField2D, d3_min, director_grad_l2_sq,
                       divergence, kinetic_energy, lp_norm, make_scenario,
                       smallness_condition, state_violations, unit_drift)


@pytest.fixture
def grid():
    return Grid2D(64, 64, 1.0, 1.0)


def test_unknown_scenario_rejected(grid):
    with pytest.raises(ValueError):
        make_scenario("does-not-exist", {}, grid)


def test_unknown_parameter_rejected(grid):
    with pytest.raises(ValueError):
        make_scenario("rest", {"bogus": 1.0}, grid)


@pytest.mark.parametrize("name, key, value, message", [
    ("angle-condition", "epsilon", "0.5", "must be a number"),
    ("angle-condition", "epsilon", math.nan, "must be finite"),
    ("supercritical", "w_max", math.inf, "must be finite"),
    ("vacuum-bubble", "vortex_sigma_frac", 0.0, "must be positive"),
    ("vacuum-bubble", "r0_frac", -0.1, "must be positive"),
    ("small-director", "theta_sigma_frac", -0.1, "must be positive"),
    ("angle-condition", "sigma_frac", 0.0, "must be positive"),
    ("small-director", "ke_target", -1.0, "must be nonnegative"),
    ("small-director", "grad_d_sq_target", -1.0, "must be nonnegative")])
def test_bad_parameter_value_is_named(grid, name, key, value, message):
    # a zero width used to divide by zero and fail as a non-finite field,
    # a negative one was squared away, ke_target = -1 raised a math domain
    # error and grad_d_sq_target = -1 was ignored
    with pytest.raises(ValueError, match=f"{key} .*{message}"):
        make_scenario(name, {key: value}, grid)


def test_zero_director_target_gives_the_constant_director(grid):
    # a zero target used to leave the angle unscaled: |grad d|^2 was 3.14
    st = make_scenario("small-director", {"grad_d_sq_target": 0.0}, grid)
    assert st.d.is_constant and director_grad_l2_sq(st.d) == 0.0


def test_all_scenarios_satisfy_state_invariants(grid):
    for name in ("rest", "vacuum-bubble", "small-director", "angle-condition",
                 "supercritical", "taylor-green"):
        st = make_scenario(name, {}, grid)
        assert state_violations(st) == [], name
        assert unit_drift(st.d) <= 1e-12
        assert st.rho.values.min() >= 0.0
        # velocities are mean-free: the far-field flow is at rest
        assert abs(st.u.u1.values.mean()) < 1e-13
        assert abs(st.u.u2.values.mean()) < 1e-13


class TestStateViolations:
    """Each broken invariant is reported, and only that one."""

    def state(self, grid, rho=None, u=None, d=None):
        return SimState(
            rho=rho if rho is not None else ScalarField2D.full(grid, 1.0),
            u=u if u is not None else VectorField2D.zeros(grid),
            d=d if d is not None else DirectorField2D.constant(grid,
                                                               (0, 0, 1)))

    def test_negative_density(self, grid):
        a = np.ones(grid.shape)
        a[5, 7] = -0.25
        out = state_violations(self.state(grid, rho=ScalarField2D(grid, a)))
        assert out == ["negative density -0.25"]

    def test_non_unit_director(self, grid):
        d = DirectorField2D.constant(grid, (0.0, 0.0, 1.1))
        out = state_violations(self.state(grid, d=d))
        assert len(out) == 1 and out[0].startswith("unit drift 0.21 ")

    def test_non_solenoidal_velocity(self, grid):
        # u = (sin 2 pi x, 0): ||div u|| = 2 pi ||cos 2 pi x|| = sqrt(2) pi
        u = VectorField2D(
            ScalarField2D.from_function(
                grid, lambda x, y: np.sin(2 * np.pi * x)),
            ScalarField2D.zeros(grid))
        out = state_violations(self.state(grid, u=u))
        assert out == [f"velocity divergence {math.sqrt(2) * math.pi:.3g} "
                       "above tolerance"]
        # by Parseval from u's bundle, as the sample's divu_res, and equal
        # to the real-space norm
        assert "derivatives" in vars(u)
        assert lp_norm(divergence(u), 2.0) == pytest.approx(
            math.sqrt(2) * math.pi, rel=1e-12)


def test_rest_is_trivial(grid):
    st = make_scenario("rest", {}, grid, rho_bar=2.0, e=(0.0, 1.0, 0.0))
    assert np.all(st.rho.values == 2.0)
    assert np.abs(st.u.u1.values).max() == 0.0
    assert np.all(st.d.d2.values == 1.0)


def test_vacuum_bubble_has_exact_vacuum_and_background(grid):
    st = make_scenario("vacuum-bubble", {}, grid, rho_bar=1.5)
    assert st.rho.values.min() == 0.0
    assert st.rho.values.max() == pytest.approx(1.5, rel=1e-12)
    # vacuum occupies the configured disk
    X, Y = grid.meshgrid()
    r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
    assert np.all(st.rho.values[r < 0.10] == 0.0)
    assert np.all(st.rho.values[r > 0.32] == 1.5)


def test_small_director_hits_requested_functionals(grid):
    st = make_scenario("small-director",
                       {"ke_target": 1.0, "grad_d_sq_target": 0.005}, grid)
    assert kinetic_energy(st.rho, st.u) == pytest.approx(1.0, rel=1e-12)
    assert director_grad_l2_sq(st.d) == pytest.approx(0.005, rel=1e-9)
    value, ok = smallness_condition(st.rho, st.u, st.d)
    assert ok
    assert value == pytest.approx(math.exp(2.01) * 0.005, rel=1e-6)


def test_angle_condition_clamps_floor(grid):
    for eps in (0.3, 0.5, 0.8):
        st = make_scenario("angle-condition", {"epsilon": eps}, grid)
        assert d3_min(st.d) >= eps
        # the clamp is active: the floor is met, not wildly exceeded
        assert d3_min(st.d) <= eps + 0.05


def test_angle_condition_requires_north_pole_far_field(grid):
    with pytest.raises(ValueError):
        make_scenario("angle-condition", {}, grid, e=(1.0, 0.0, 0.0))


def test_supercritical_crosses_equator_and_breaks_smallness(grid):
    st = make_scenario("supercritical", {}, grid)
    assert d3_min(st.d) < 0.0
    value, ok = smallness_condition(st.rho, st.u, st.d)
    assert not ok and value > 1.0


def test_supercritical_requires_equator_crossing(grid):
    with pytest.raises(ValueError):
        make_scenario("supercritical", {"w_max": 0.5}, grid)


def test_taylor_green_is_divergence_free_any_box():
    g = Grid2D(64, 32, 2.0, 1.0)
    st = make_scenario("taylor-green", {"amplitude": 0.7}, g)
    assert lp_norm(divergence(st.u), 2.0) < 1e-12
    assert np.abs(st.u.u1.values).max() == pytest.approx(0.7, rel=1e-12)
