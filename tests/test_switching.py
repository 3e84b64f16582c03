import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdflow import (
    AffineScalar,
    ProjectionSystem,
    QuadraticScalar,
    StepTooLargeError,
    classify_switch,
    compute_sigma,
    output_port_rate,
    positive_projection,
    switched_storage,
)
from pdflow.integrator import trajectory_columns
from pdflow.switching import mode_multiplier_rates


def proj_1d(tau=1.0):
    # single constraint g(u) = u - 1
    return ProjectionSystem((AffineScalar([1.0], -1.0),), [tau], 1)


def test_positive_projection_branches():
    assert positive_projection(-1.0, 0.5) == -1.0
    assert positive_projection(-1.0, 0.0) == 0.0
    assert positive_projection(2.0, 0.0) == 2.0
    with pytest.raises(ValueError):
        positive_projection(0.5, -1e-3)


def test_compute_sigma_examples():
    assert compute_sigma([0.0, 0.3], [-1.0, -2.0]) == frozenset({0})
    assert compute_sigma([0.0, 0.0], [1.0, -1.0]) == frozenset({1})
    assert compute_sigma([0.2, 0.3], [-1.0, -2.0]) == frozenset()


def multiplier_field(sys, u, mu):
    """mudot at a state: the mode's rates under the sigma that (mu, g(u)) selects."""
    g = sys.values(np.asarray(u, dtype=float))
    return mode_multiplier_rates(sys, g, compute_sigma(mu, g))


def test_multiplier_vector_field_examples():
    sys = proj_1d(tau=2.0)
    assert multiplier_field(sys, [3.0], [0.0]) == pytest.approx([1.0])  # 2/tau
    assert multiplier_field(sys, [0.0], [0.0]) == pytest.approx([0.0])
    assert multiplier_field(sys, [0.0], [0.5]) == pytest.approx([-0.5])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_field_equals_componentwise_projection(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    cons = tuple(AffineScalar(rng.normal(size=2), rng.normal()) for _ in range(p))
    sys = ProjectionSystem(cons, rng.uniform(0.5, 2.0, p), 2)
    u = rng.normal(size=2)
    mu = rng.uniform(0, 1, p)
    mu[rng.random(p) < 0.5] = 0.0
    field = multiplier_field(sys, u, mu)
    g = sys.values(u)
    expected = [positive_projection(g[i], mu[i]) / sys.tau_mu[i] for i in range(p)]
    assert np.allclose(field, expected)


def test_switched_storage_examples():
    p = 8
    cons = tuple(AffineScalar(np.zeros(1), -1.0) for _ in range(p))
    sys = ProjectionSystem(cons, np.full(p, 2.0), 1)
    mu_dot = np.full(p, 0.5)
    assert switched_storage(sys, frozenset(range(p)), mu_dot) == 0.0
    # empty sigma: 0.5 * sum tau * mudot^2 = 0.5 * 8 * 2 * 0.25 = 2.0
    assert switched_storage(sys, frozenset(), mu_dot) == pytest.approx(2.0)
    # drop index 2 from the sum
    assert switched_storage(sys, frozenset({2}), mu_dot) == pytest.approx(2.0 - 0.25)


def test_output_port_examples():
    # y_tilde = sum_i mu_i grad g_i(u). For affine g its rate is sum_i mudot_i
    # grad g_i, so trajectory_columns with mudot := mu and udot := 1 reads
    # y_tilde off the inequality power udot' d/dt y_tilde.
    def port(sys, u, mu):
        D = np.concatenate([[1.0], mu])[None]
        return trajectory_columns(sys, np.array([u]), np.array([mu]), D)["power_ineq"][0]

    sys = proj_1d()
    assert port(sys, [3.0], [0.0]) == pytest.approx(0.0)
    assert port(sys, [3.0], [2.0]) == pytest.approx(2.0)
    sys2 = ProjectionSystem(
        (AffineScalar([1.0], -1.0), AffineScalar([-1.0], 0.0)), [1.0, 1.0], 1
    )
    assert port(sys2, [0.5], [1.0, 3.0]) == pytest.approx(-2.0)


def test_output_port_rate_includes_curvature():
    g = QuadraticScalar([[2.0]], [0.0], -1.0)  # u^2 - 1
    sys = ProjectionSystem((g,), [1.0], 1)
    u, mu, mu_dot, u_dot = np.array([0.7]), np.array([1.5]), np.array([0.3]), np.array([0.2])
    # d/dt (mu * 2u) = mudot*2u + mu*2*udot
    expected = mu_dot[0] * 2 * u[0] + mu[0] * 2.0 * u_dot[0]
    assert output_port_rate(sys, u, mu, mu_dot, u_dot) == pytest.approx([expected])


def test_classify_switch_activation_drop_and_deactivation_continuity():
    sys = proj_1d(tau=2.0)
    g_vals = np.array([-0.5])
    events = classify_switch(sys, frozenset(), frozenset({0}), np.array([0.0]), g_vals, 1.25)
    assert len(events) == 1 and events[0].kind == "activation"
    # storage drops by 0.5 * g^2 / tau = 0.5 * 0.25 / 2
    assert events[0].storage_before - events[0].storage_after == pytest.approx(0.0625)
    assert events[0].storage_after == 0.0

    g_cross = np.array([1e-12])  # just past zero on the way up
    events = classify_switch(sys, frozenset({0}), frozenset(), np.array([0.0]), g_cross, 2.0)
    assert len(events) == 1 and events[0].kind == "deactivation"
    assert abs(events[0].storage_after - events[0].storage_before) <= 1e-20


def test_classify_switch_orders_simultaneous_events_by_index():
    cons = tuple(AffineScalar(np.zeros(1), -1.0) for _ in range(3))
    sys = ProjectionSystem(cons, np.ones(3), 1)
    events = classify_switch(
        sys, frozenset(), frozenset({0, 2}), np.zeros(3), np.full(3, -1.0), 0.5
    )
    assert [e.index for e in events] == [0, 2]
    # storages chain: each activation removes one 0.5*g^2 term
    assert events[0].storage_before == pytest.approx(1.5)
    assert events[0].storage_after == pytest.approx(1.0)
    assert events[1].storage_before == pytest.approx(1.0)
    assert events[1].storage_after == pytest.approx(0.5)


def test_classify_switch_rejects_inconsistent_transition():
    sys = proj_1d()
    with pytest.raises(StepTooLargeError):
        # entering sigma while g is clearly positive
        classify_switch(sys, frozenset(), frozenset({0}), np.array([0.0]), np.array([0.5]), 0.0)
    with pytest.raises(StepTooLargeError):
        # leaving sigma with mu far from zero
        classify_switch(sys, frozenset({0}), frozenset(), np.array([0.4]), np.array([0.1]), 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_convexity_inequality_on_output_curvature(seed):
    # udot' (sum mu_i hess g_i) udot >= 0 for mu >= 0 and convex g
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    cons = []
    for _ in range(p):
        B = rng.normal(size=(n, n))
        cons.append(QuadraticScalar(B @ B.T, rng.normal(size=n), rng.normal()))
    sys = ProjectionSystem(tuple(cons), np.ones(p), n)
    u = rng.normal(size=n)
    mu = rng.uniform(0, 2, p)
    u_dot = rng.normal(size=n)
    curvature = np.einsum("i,ijk,j,k->", mu, sys.hessians(u), u_dot, u_dot)
    assert curvature >= -1e-10


def test_mode_rates_do_not_depend_on_mu():
    sys = proj_1d(tau=4.0)
    g = np.array([-2.0])
    assert mode_multiplier_rates(sys, g, frozenset()) == pytest.approx([-0.5])
    assert mode_multiplier_rates(sys, g, frozenset({0})) == pytest.approx([0.0])


def test_tau_mu_validation():
    with pytest.raises(ValueError):
        ProjectionSystem((AffineScalar([1.0], 0.0),), [0.0], 1)
    with pytest.raises(ValueError):
        ProjectionSystem((AffineScalar([1.0], 0.0),), [1.0, 2.0], 1)
