"""Negative and positive tests of the benchmark's own checkers.

Each checker must accept a known optimum and reject a deliberately perturbed
one. Runs under pytest (`python3 -m pytest bench/test_checkers.py`) and as
part of `python3 bench/run.py --smoke`.
"""

import numpy as np

from checkers import KKT_TOL, internal_load, kkt_ok, welfare_bisection, welfare_qp
from workloads import draw_qcqp


def _scalar_qp():
    # min (x - 2)^2  s.t.  x <= 1:  x* = 1, mu* = 2
    return {"H": [[2.0]], "c": [-4.0], "G": [[1.0]], "d": [-1.0]}


def test_kkt_accepts_known_optimum():
    ok, res = kkt_ok(_scalar_qp(), [1.0], [], [2.0])
    assert ok, res


def test_kkt_rejects_perturbed_primal():
    ok, res = kkt_ok(_scalar_qp(), [1.0 + 1e-3], [], [2.0])
    assert not ok and res["primal_ineq"] > KKT_TOL


def test_kkt_rejects_perturbed_multiplier():
    ok, res = kkt_ok(_scalar_qp(), [1.0], [], [2.0 + 1e-3])
    assert not ok and res["stationarity"] > KKT_TOL


def test_kkt_rejects_complementarity_and_dual_sign():
    data = {"H": [[2.0]], "c": [0.0], "G": [[1.0]], "d": [-1.0]}  # x* = 0, slack 1
    assert not kkt_ok(data, [0.0], [], [1e-3])[0]
    assert not kkt_ok({"H": [[2.0]], "c": [0.0], "G": [[1.0]], "d": [0.0]},
                      [0.0], [], [-1e-3])[0]


def test_kkt_equality_block():
    # min |x|^2  s.t.  x0 + x1 - 2 = 0:  x* = (1, 1), lam* = -2
    data = {"H": np.eye(2) * 2.0, "c": [0.0, 0.0], "A": [[1.0, 1.0]], "b": [-2.0]}
    assert kkt_ok(data, [1.0, 1.0], [-2.0], [])[0]
    assert not kkt_ok(data, [1.0 + 1e-3, 1.0], [-2.0], [])[0]


def test_kkt_planted_qcqp():
    inst = draw_qcqp(np.random.default_rng(7), (3, 1, 2, 1))
    point = inst["x_star"], inst["lam_star"], inst["mu_star"]
    ok, res = kkt_ok(inst, *point)
    assert ok, res
    assert not kkt_ok(inst, point[0] + 1e-3, *point[1:])[0]


def _building(price=1.0, d=None):
    return {
        "gamma": np.ones(4), "T_ref": np.full(4, 20.5), "T_min": np.full(4, 18.0),
        "T_max": np.full(4, 24.0), "R_amb": np.full(4, 11.5),
        "d": np.full(4, 0.5) if d is None else d, "T_inf": 30.0, "theta": 3.0,
        "rho1": 0.5 * price, "rho2": 0.0,
    }


def test_bisection_satisfies_kkt():
    b = _building()
    T, q = welfare_bisection(b)
    x = np.concatenate([T, [q]])
    data = welfare_qp(b)
    # interior optimum: bounds inactive, multiplier from the q row
    lam = np.array([2.0 * b["rho1"] * q + b["rho2"]])
    ok, res = kkt_ok(data, x, lam, np.zeros(8))
    assert ok, res


def test_bisection_rejects_perturbed_solution():
    b = _building()
    T, q = welfare_bisection(b)
    x = np.concatenate([T + np.array([1e-3, 0, 0, 0]), [q]])
    lam = np.array([2.0 * b["rho1"] * q])
    assert not kkt_ok(welfare_qp(b), x, lam, np.zeros(8))[0]


def test_bisection_binds_upper_bounds_on_a_hot_day():
    b = dict(_building(price=3.0), T_inf=40.0, d=np.full(4, 2.0))
    T, q = welfare_bisection(b)
    assert np.all(T == b["T_max"])
    cool = welfare_bisection(_building())
    assert np.all(cool[0] < b["T_max"]) and cool[1] < q


def test_higher_price_lowers_supply():
    assert welfare_bisection(_building(price=3.0))[1] < welfare_bisection(_building())[1]


def test_internal_load_profile():
    base = np.full(4, 0.5)
    assert np.allclose(internal_load(3.0, 0.2, 0.3, base), base)
    assert np.allclose(internal_load(12.0, 0.2, 0.3, base), base + 0.5 / 4)
    assert np.allclose(internal_load(8.75, 0.2, 0.0, base), base + 0.1 / 4)
