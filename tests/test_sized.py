"""One expansion rule for per-zone and per-component values.

`problem.sized` owns it: one number, or a one-entry list, stands for `size`
copies, for every size including 0, and any other length is a ValueError.
Every constructor and reader that takes such a value must agree with it.
"""

import numpy as np
import pytest

from pdflow import (
    AffineScalar,
    ProjectionSystem,
    ThermalNetwork,
    WelfareParams,
    build_hvac_system,
    compose,
    quadratic_problem,
    sized,
)
from pdflow.brayton_moser import as_spd_matrix
from pdflow.scenario import ScenarioError, _floats


def network(N, C=9.2, d=0.5):
    return ThermalNetwork(C=C, R_zone=[], R_amb=[11.5] * N, T_inf=30.0, d=d, theta=3.0)


def params(**zone):
    base = dict(gamma=1.0, T_ref=20.5, b_util=0.0, rho=(0.5, 0.0, 0.0), T_min=18.0, T_max=24.0)
    return WelfareParams(**{**base, **zone})


def welfare_gamma(value, size):
    # every zone field of the same shape, so the parameters alone are consistent
    v = np.asarray(value, dtype=float)
    par = WelfareParams(gamma=v, T_ref=v, b_util=v, rho=(0.5, 0.0, 0.0),
                        T_min=v - 1.0, T_max=v + 1.0)
    return par.broadcast(size).gamma


# site name -> (value, size) -> the expanded array
SITES = {
    "sized": lambda v, size: sized(v, size, "v"),
    "scenario._floats": lambda v, size: np.array(_floats(v, "dynamics.tau_x", size)),
    "ThermalNetwork.C": lambda v, size: network(size, C=v).C,
    "ThermalNetwork.d": lambda v, size: network(size, d=v).d,
    "WelfareParams.broadcast": welfare_gamma,
    "build_hvac_system.tau_T": lambda v, size: build_hvac_system(
        network(size), params(), tau_T=v).tau_T,
    "build_hvac_system.tau_mu": lambda v, size: build_hvac_system(
        network(size // 2), params(), tau_mu=v).tau_mu,
    "ProjectionSystem.tau_mu": lambda v, size: ProjectionSystem(
        tuple(AffineScalar([1.0], -1.0) for _ in range(size)), v, 1).tau_mu,
    "as_spd_matrix": lambda v, size: np.diag(as_spd_matrix(v, size, "tau_x")),
}
# a building without zones is itself an error, so these sites are not tried at size 0
NEEDS_ZONES = {"ThermalNetwork.C", "ThermalNetwork.d", "build_hvac_system.tau_T",
               "build_hvac_system.tau_mu"}

INPUTS = {
    "one number": lambda size: 2.5,
    "one-entry list": lambda size: [2.5],
    "full list": lambda size: [1.0 + k for k in range(size)],
    "wrong length": lambda size: [1.0, 2.0, 3.0],
}
CASES = [(site, given, size) for site in SITES for given in INPUTS for size in (4, 0)
         if size or site not in NEEDS_ZONES]


@pytest.mark.parametrize(("site", "given", "size"), CASES)
def test_every_site_expands_like_sized(site, given, size):
    value = INPUTS[given](size)
    if given == "wrong length":
        with pytest.raises(ValueError, match=f"expected {size} entries, got {len(value)}"):
            SITES[site](value, size)
        return
    expected = np.full(size, 2.5) if given != "full list" else np.arange(1.0, size + 1.0)
    out = SITES[site](value, size)
    assert out.dtype == float and np.array_equal(out, expected)


def test_sized_rejects_a_nested_list():
    with pytest.raises(ValueError, match="tau_x: expected a flat list of numbers"):
        sized([[1.0, 2.0]], 2, "tau_x")


def test_reader_errors_keep_their_dotted_path():
    with pytest.raises(ScenarioError, match=r"^dynamics\.tau_x: expected 3 entries, got 2$"):
        _floats([1.0, 2.0], "dynamics.tau_x", 3)
    with pytest.raises(ScenarioError, match=r"^dynamics\.tau_x: expected a flat list"):
        _floats([[1.0, 2.0]], "dynamics.tau_x", 2)


def test_per_zone_gamma_with_a_shared_T_ref():
    hs = build_hvac_system(network(2), params(gamma=[1.0, 2.0]))
    assert np.array_equal(hs.params.T_ref, [20.5, 20.5])
    H = hs.problem.objective.hess(np.zeros(3))
    assert np.array_equal(np.diag(H), [2.0, 4.0, 1.0])
    with pytest.raises(ValueError, match="gamma: expected 3 entries, got 2"):
        build_hvac_system(network(3), params(gamma=[1.0, 2.0]))


def test_projection_without_constraints_takes_one_number():
    assert ProjectionSystem((), 1.0, 3).tau_mu.shape == (0,)


def test_compose_expands_a_one_entry_tau_x():
    prob = quadratic_problem(np.eye(3), np.zeros(3))
    sys = compose(prob, tau_x=[2.0], tau_lam=[], tau_mu=[])
    assert np.array_equal(sys.bm.tau_x, 2.0 * np.eye(3))


def test_a_network_needs_a_zone():
    with pytest.raises(ValueError, match="R_amb: expected at least one zone"):
        network(0)


def test_empty_tau_mu_is_a_value_error():
    with pytest.raises(ValueError, match="tau_mu: expected 8 entries, got 0"):
        build_hvac_system(network(4), params(), tau_mu=[])


def test_a_nested_r_amb_is_a_value_error():
    with pytest.raises(ValueError, match=r"R_amb: expected a flat list of numbers, got shape"):
        ThermalNetwork(C=9.2, R_zone=[], R_amb=[[10.0, 10.0], [10.0, 10.0]], T_inf=30.0,
                       d=0.5, theta=3.0)
