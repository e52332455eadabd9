import math

import numpy as np
import pytest

from nematic2d import (DirectorField2D, Grid2D, ScalarField2D, SimState,
                       VectorField2D, d3_min, director_grad_l2_sq,
                       divergence, kinetic_energy, lp_norm, make_scenario,
                       smallness_condition, state_violations, unit_drift)
from nematic2d.scenarios import _RANGES, PARAMETERS, SCENARIOS

from helpers import meshgrid_scenario


@pytest.fixture
def grid():
    return Grid2D(64, 64, 1.0, 1.0)


def test_unknown_scenario_rejected(grid):
    with pytest.raises(ValueError):
        make_scenario("does-not-exist", {}, grid)


@pytest.mark.parametrize("name, key", [
    (name, key) for name in SCENARIOS
    for key in sorted({"bogus"}.union(*PARAMETERS.values())
                      - set(PARAMETERS[name]))])
def test_unknown_parameter_rejected(grid, name, key):
    # angle-condition used to accept w_max and supercritical epsilon, and
    # neither read it
    with pytest.raises(ValueError, match=rf"scenario {name}: \['{key}'\]"):
        make_scenario(name, {key: 0.5}, grid)


@pytest.mark.parametrize("name", SCENARIOS)
def test_the_table_holds_the_defaults(name):
    # a default written again in a branch would differ from the table's
    # the moment either changes
    g = Grid2D(32, 32, 1.0, 1.0)
    st = make_scenario(name, {}, g)
    full = make_scenario(name, PARAMETERS[name], g)
    for got, want in ((st.rho, full.rho), (st.u.u1, full.u.u1),
                      (st.u.u2, full.u.u2), (st.d.d1, full.d.d1),
                      (st.d.d2, full.d.d2), (st.d.d3, full.d.d3)):
        assert np.array_equal(got.values, want.values)


def test_checked_names_are_parameters():
    # a range under a name no scenario takes would never be checked
    assert set(_RANGES) <= set().union(*PARAMETERS.values())


@pytest.mark.parametrize("name, key, value, message", [
    ("angle-condition", "epsilon", "0.5", "must be a number"),
    ("angle-condition", "epsilon", math.nan, "must be finite"),
    ("supercritical", "w_max", math.inf, "must be finite"),
    ("vacuum-bubble", "vortex_sigma_frac", 0.0, "must be positive"),
    ("vacuum-bubble", "r0_frac", -0.1, "must be positive"),
    ("small-director", "theta_sigma_frac", -0.1, "must be positive"),
    ("angle-condition", "sigma_frac", 0.0, "must be positive"),
    ("small-director", "ke_target", -1.0, "must be nonnegative"),
    ("small-director", "grad_d_sq_target", -1.0, "must be nonnegative"),
    ("angle-condition", "epsilon", 0.0, r"must lie in \(0, 1\]"),
    ("supercritical", "w_max", 1.0, "must exceed 1 "),
    ("small-director", "rho_blob_amp", -1.0, "must exceed -1")])
def test_bad_parameter_value_is_named(grid, name, key, value, message):
    # a zero width used to divide by zero and fail as a non-finite field,
    # a negative one was squared away, ke_target = -1 raised a math domain
    # error and grad_d_sq_target = -1 was ignored
    with pytest.raises(ValueError, match=f"{key} .*{message}"):
        make_scenario(name, {key: value}, grid)


@pytest.mark.parametrize("name, key, value", [
    ("angle-condition", "epsilon", 1.0), ("supercritical", "w_max", 1.5),
    ("small-director", "rho_blob_amp", -0.5)])
def test_range_edges_are_accepted(grid, name, key, value):
    # epsilon's closed end, and values just inside the open ends above
    st = make_scenario(name, {key: value}, grid)
    assert state_violations(st) == []


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


# far-field directors: the pole, which every scenario accepts, and a tilted
# one for the scenarios that take any
TILTED = (0.6, 0.0, 0.8)


@pytest.mark.parametrize("name, params, e", [
    *[(name, {}, (0.0, 0.0, 1.0)) for name in SCENARIOS],
    ("rest", {}, TILTED),
    ("vacuum-bubble", {"r0_frac": 0.1, "vortex_amp": 0.0}, TILTED),
    ("vacuum-bubble", {"r1_frac": 0.25, "vortex_sigma_frac": 0.2}, TILTED),
    ("small-director", {"rho_blob_amp": -0.3, "grad_d_sq_target": 0.02,
                        "ke_target": 0.4}, TILTED),
    ("small-director", {"grad_d_sq_target": 0.0, "theta_sigma_frac": 0.2},
     TILTED),
    ("angle-condition", {"epsilon": 0.9, "sigma_frac": 0.15,
                         "vortex_amp": 0.0}, (0.0, 0.0, 1.0)),
    ("supercritical", {"w_max": 2.0}, (0.0, 0.0, 1.0)),
    ("taylor-green", {"amplitude": -2.5}, TILTED)])
@pytest.mark.parametrize("grid", [Grid2D(48, 64, 1.3, 0.8),
                                  Grid2D(96, 32, 0.7, 2.0)],
                         ids=["48x64", "96x32"])
def test_initial_data_equal_the_meshgrid_formulas_bitwise(name, params, e,
                                                          grid):
    # the scenarios build their data from 1-D factors, with every node
    # seeing the operations of the meshgrid formula on the same operands
    st = make_scenario(name, params, grid, rho_bar=1.3, e=e)
    rho, u, d = meshgrid_scenario(name, params, grid, 1.3, e)
    assert np.array_equal(st.rho.values, rho.values)
    for got, want in ((st.u.u1, u.u1), (st.u.u2, u.u2), (st.d.d1, d.d1),
                      (st.d.d2, d.d2), (st.d.d3, d.d3)):
        assert np.array_equal(got.values, want.values)
