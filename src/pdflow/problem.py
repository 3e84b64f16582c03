"""Convex problem descriptions, KKT machinery, and a dual active-set oracle.

The problem class handled throughout is

    minimize f(x)   subject to   h(x) = A x + b = 0,   g_i(x) <= 0,

with f strictly convex (positive definite Hessian), h affine, and each g_i
convex with positive semidefinite Hessian. Oracles expose value/gradient/
Hessian triples so the dynamics and the certificate checks can query exact
derivatives. All containers are frozen; oracles are pure functions of their
inputs, so problems are safe to share across concurrent simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Quadratic",
    "AffineScalar",
    "QuadraticScalar",
    "SmoothScalar",
    "AffineMap",
    "ConvexProblem",
    "KktPoint",
    "KktResidual",
    "quadratic_problem",
    "lagrangian_gradient",
    "kkt_residual",
    "active_set_oracle",
    "quadratic_data",
    "sized",
    "InfeasibleProblemError",
    "OracleCapabilityError",
]


class InfeasibleProblemError(RuntimeError):
    """The active-set oracle found no KKT point within tolerance.

    Either the constraints admit no point at all, or rounding kept the solve
    from reaching the requested KKT residual.
    """


class OracleCapabilityError(ValueError):
    """The problem is not quadratic/affine, so the active-set oracle cannot solve it."""


def _vec(a, name: str) -> np.ndarray:
    out = np.atleast_1d(np.asarray(a, dtype=float))
    if out.ndim != 1:
        raise ValueError(f"{name}: expected a flat list of numbers, got shape {out.shape}")
    return out


def sized(value, size: int, name: str) -> np.ndarray:
    """`size` floats from a flat list of that length, or from one number (or a
    one-entry list) standing for `size` copies, 0 included; else ValueError.

    The one rule for per-component and per-zone values (time constants, zone
    capacitances, heat gains, comfort data)."""
    arr = _vec(value, name)
    if arr.size == 1:
        return np.full(size, arr[0])
    if arr.size != size:
        raise ValueError(f"{name}: expected {size} entries, got {arr.size}")
    return arr


def _mat(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class Quadratic:
    """f(x) = 0.5 x'Hx + c'x + const with H symmetric positive definite."""

    H: np.ndarray
    c: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        H = _mat(self.H, "H")
        c = _vec(self.c, "c")
        if H.shape != (c.size, c.size):
            raise ValueError(f"H shape {H.shape} incompatible with c size {c.size}")
        if not np.allclose(H, H.T, atol=1e-12 * max(1.0, np.abs(H).max(initial=0.0))):
            raise ValueError("H must be symmetric")
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise ValueError("H must be positive definite") from None
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "const", float(self.const))

    @property
    def n(self) -> int:
        return self.c.size

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.H @ x + self.c @ x + self.const)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.H @ x + self.c

    def hess(self, x: np.ndarray) -> np.ndarray:
        return self.H


@dataclass(frozen=True)
class AffineScalar:
    """g(x) = a'x + b. Hessian is identically zero."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _vec(self.a, "a"))
        object.__setattr__(self, "b", float(self.b))

    @property
    def n(self) -> int:
        return self.a.size

    def value(self, x: np.ndarray) -> float:
        return float(self.a @ x + self.b)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.a

    def hess(self, x: np.ndarray) -> np.ndarray:
        return np.zeros((self.a.size, self.a.size))


@dataclass(frozen=True)
class QuadraticScalar:
    """g(x) = 0.5 x'Px + q'x + r with P symmetric positive semidefinite."""

    P: np.ndarray
    q: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        P = _mat(self.P, "P")
        q = _vec(self.q, "q")
        if P.shape != (q.size, q.size):
            raise ValueError("P shape incompatible with q")
        scale = max(1.0, np.abs(P).max(initial=0.0))
        if not np.allclose(P, P.T, atol=1e-12 * scale):
            raise ValueError("P must be symmetric")
        if np.linalg.eigvalsh(P).min(initial=0.0) < -1e-10 * scale:
            raise ValueError("P must be positive semidefinite")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", float(self.r))

    @property
    def n(self) -> int:
        return self.q.size

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.P @ x + self.q @ x + self.r)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.P @ x + self.q

    def hess(self, x: np.ndarray) -> np.ndarray:
        return self.P


@dataclass(frozen=True)
class SmoothScalar:
    """Wrap user callables (value, grad, hess) as a scalar oracle.

    The callables must be pure; convexity is the caller's obligation and is
    only spot-checked by the property tests, never enforced here.
    """

    value_fn: object
    grad_fn: object
    hess_fn: object

    def value(self, x: np.ndarray) -> float:
        return float(self.value_fn(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_fn(x), dtype=float)

    def hess(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.hess_fn(x), dtype=float)


@dataclass(frozen=True)
class AffineMap:
    """h(x) = A x + b, the equality-constraint block (m rows)."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            A = A.reshape(0, 0) if A.size == 0 else np.atleast_2d(A)
        b = _vec(self.b, "b") if np.size(self.b) else np.zeros(0)
        if A.shape[0] != b.size:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.size} entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def values(self, x: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return np.zeros(0)
        return self.A @ x + self.b


def _stack(constraints, n: int):
    """(P, G, d) with g_i(x) = 0.5 x'P_i x + G_i x + d_i when every constraint is
    AffineScalar or QuadraticScalar, else None. P_i is zero on affine rows and P
    is None when all rows are affine; one array operation then evaluates them all."""
    if not all(isinstance(c, (AffineScalar, QuadraticScalar)) for c in constraints):
        return None
    quad = [isinstance(c, QuadraticScalar) for c in constraints]
    G = np.array([c.q if k else c.a for c, k in zip(constraints, quad)]).reshape(-1, n)
    d = np.array([c.r if k else c.b for c, k in zip(constraints, quad)], dtype=float)
    if not any(quad):
        return None, G, d
    P = [c.P if k else np.zeros((n, n)) for c, k in zip(constraints, quad)]
    return np.array(P), G, d


def _values(constraints, stack, x: np.ndarray) -> np.ndarray:
    """g at x: from the stack when there is one, else one oracle call per constraint."""
    if stack is None:
        return np.array([g.value(x) for g in constraints])
    P, G, d = stack
    return G @ x + d if P is None else G @ x + d + 0.5 * ((P @ x) @ x)


def _grads(constraints, stack, x: np.ndarray) -> np.ndarray:
    """The rows grad g_i(x), from the stack when there is one."""
    if stack is None:
        return np.vstack([g.grad(x) for g in constraints])
    P, G, _ = stack
    return G if P is None else P @ x + G


@dataclass(frozen=True)
class ConvexProblem:
    """Objective plus affine equalities and convex inequalities over R^n."""

    objective: object
    equality: AffineMap
    inequalities: tuple
    n: int
    _stack: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        if self.equality.m and self.equality.A.shape[1] != self.n:
            raise ValueError(
                f"equality block has {self.equality.A.shape[1]} columns, expected {self.n}"
            )
        for j, g in enumerate(self.inequalities):
            gn = getattr(g, "n", self.n)
            if gn != self.n:
                raise ValueError(f"inequality {j} has dimension {gn}, expected {self.n}")
        object.__setattr__(self, "_stack", _stack(self.inequalities, self.n))

    @property
    def m(self) -> int:
        return self.equality.m

    @property
    def p(self) -> int:
        return len(self.inequalities)

    def eq_values(self, x: np.ndarray) -> np.ndarray:
        return self.equality.values(x)

    def ineq_values(self, x: np.ndarray) -> np.ndarray:
        return _values(self.inequalities, self._stack, x)

    def ineq_grads(self, x: np.ndarray) -> np.ndarray:
        return _grads(self.inequalities, self._stack, x)

    def equality_part(self) -> "ConvexProblem":
        """The same objective and equalities with all inequalities dropped."""
        return ConvexProblem(self.objective, self.equality, (), self.n)


def quadratic_problem(H, c, const=0.0, A_eq=None, b_eq=None, G=None, d=None) -> ConvexProblem:
    """Assemble a quadratic/affine problem from raw arrays.

    Objective 0.5 x'Hx + c'x + const, equalities A_eq x + b_eq = 0 and
    inequality rows G_j x + d_j <= 0. This is the form the scenario files and
    the active-set oracle work with.
    """
    obj = Quadratic(H, c, const)
    n = obj.n
    if A_eq is None or np.size(A_eq) == 0:
        eq = AffineMap(np.zeros((0, n)), np.zeros(0))
    else:
        if b_eq is None:
            raise ValueError("A_eq given without b_eq")
        eq = AffineMap(np.atleast_2d(np.asarray(A_eq, dtype=float)), b_eq)
    cons = ()
    if G is not None and np.size(G) > 0:
        if d is None:
            raise ValueError("G given without d")
        Gm = np.atleast_2d(np.asarray(G, dtype=float))
        dv = _vec(d, "d")
        if Gm.shape[0] != dv.size:
            raise ValueError("G rows and d entries disagree")
        cons = tuple(AffineScalar(Gm[j], dv[j]) for j in range(Gm.shape[0]))
    return ConvexProblem(obj, eq, cons, n)


@dataclass(frozen=True)
class KktPoint:
    """Primal-dual triple (x, lam, mu) with mu >= 0 componentwise."""

    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _vec(self.x, "x") if np.size(self.x) else np.zeros(0))
        object.__setattr__(self, "lam", _vec(self.lam, "lam") if np.size(self.lam) else np.zeros(0))
        object.__setattr__(self, "mu", _vec(self.mu, "mu") if np.size(self.mu) else np.zeros(0))


@dataclass(frozen=True)
class KktResidual:
    """Max-norm defects of the first-order optimality conditions."""

    stationarity: float
    equality: float
    inequality: float
    complementarity: float
    dual_negativity: float

    @property
    def max_defect(self) -> float:
        """The largest defect; NaN when any defect is NaN."""
        return float(np.max([self.stationarity, self.equality, self.inequality,
                             self.complementarity, self.dual_negativity]))


def lagrangian_gradient(problem: ConvexProblem, x, lam, mu):
    """Evaluate (grad_x L, h(x), g(x)) with L = f + lam'h + mu'g.

    Raises ValueError on dimension mismatch; oracle failures propagate.
    """
    x = _vec(x, "x") if np.size(x) else np.zeros(0)
    lam = _vec(lam, "lam") if np.size(lam) else np.zeros(0)
    mu = _vec(mu, "mu") if np.size(mu) else np.zeros(0)
    if x.size != problem.n:
        raise ValueError(f"x has size {x.size}, expected {problem.n}")
    if lam.size != problem.m:
        raise ValueError(f"lam has size {lam.size}, expected {problem.m}")
    if mu.size != problem.p:
        raise ValueError(f"mu has size {mu.size}, expected {problem.p}")
    grad = problem.objective.grad(x)
    if problem.m:
        grad = grad + problem.equality.A.T @ lam
    if problem.p:
        grad = grad + mu @ problem.ineq_grads(x)
    return grad, problem.eq_values(x), problem.ineq_values(x)


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def kkt_residual(problem: ConvexProblem, point: KktPoint) -> KktResidual:
    """Max-norm KKT defects; all zero (up to tolerance) iff point is optimal."""
    grad, h, g = lagrangian_gradient(problem, point.x, point.lam, point.mu)
    return KktResidual(
        stationarity=_max_abs(grad),
        equality=_max_abs(h),
        inequality=_max_abs(np.maximum(g, 0.0)),
        complementarity=_max_abs(point.mu * g),
        dual_negativity=_max_abs(np.maximum(-point.mu, 0.0)),
    )


def quadratic_data(problem: ConvexProblem):
    """Extract (H, c, A, b, G, d) or raise OracleCapabilityError.

    Only problems with a Quadratic objective and purely affine constraints
    can be solved exactly by the active-set oracle.
    """
    if not isinstance(problem.objective, Quadratic):
        raise OracleCapabilityError("objective is not quadratic")
    if problem._stack is None or problem._stack[0] is not None:
        raise OracleCapabilityError("inequality constraints are not all affine")
    _, G, d = problem._stack
    return (
        problem.objective.H,
        problem.objective.c,
        problem.equality.A.reshape(problem.m, problem.n),
        problem.equality.b,
        G,
        d,
    )


def _project(Q, w):
    """Coordinates of w in the orthonormal columns of Q, and the rest of w.

    Gram-Schmidt applied twice, so the remainder is orthogonal to Q to
    rounding even when w nearly lies in Q's span.
    """
    proj = Q.T @ w
    v = w - Q @ proj
    again = Q.T @ v
    return proj + again, v - Q @ again


def _append(Q, R, proj, v):
    """Extend the factor B = Q R by the column Q proj + v (v orthogonal to Q)."""
    k = R.shape[0]
    norm = np.sqrt(v @ v)
    R2 = np.zeros((k + 1, k + 1))
    R2[:k, :k] = R
    R2[:k, k] = proj
    R2[k, k] = norm
    return np.column_stack([Q, v / norm]), R2


ORACLE_TOL = 1e-10  # the KKT residual an oracle point must reach


def active_set_oracle(problem: ConvexProblem) -> KktPoint:
    """Ground-truth KKT point of a quadratic/affine problem (dual active-set method).

    Goldfarb & Idnani (Math. Programming 27, 1983). Starts from the
    unconstrained minimiser, adds the equalities (free multipliers), then
    adds the most violated inequality (lowest index on ties) until none is
    violated; each iterate is the optimum for the constraints added so far.
    A constraint linearly dependent on the active set takes a dual-only step
    that drops an active inequality. The method shares no code with the
    flow and has no limit on p. The returned point satisfies
    kkt_residual <= ORACLE_TOL and its inactive multipliers are exactly 0.0.

    Raises OracleCapabilityError if the problem is not quadratic/affine and
    InfeasibleProblemError if no step can satisfy a violated constraint.
    """
    H, c, A, b, G, d = quadratic_data(problem)
    n, m, p = problem.n, problem.m, problem.p
    Li = np.linalg.inv(np.linalg.cholesky(H))  # H^-1 = Li' Li
    C = np.vstack([A, G])  # rows 0..m-1 are equalities, then the inequalities
    e = np.concatenate([b, d])
    CL = C @ Li.T  # row i is (Li a_i)'
    absC, abse = np.abs(C), np.abs(e)
    x = -Li.T @ (Li @ c)
    # H x + c + C[active]' u = 0 and CL[active].T = Q R throughout
    active, u = [], np.zeros(0)
    Q, R = np.zeros((n, 0)), np.zeros((0, 0))

    def rounding(rows):
        # a constraint value within this of 0 counts as satisfied
        return 1e3 * np.finfo(float).eps * (absC[rows] @ np.abs(x) + abse[rows])

    def direction(q):
        # raising row q's multiplier by t moves x by -t z and u by -t r; z is
        # None when row q depends on the active rows, else a_q' z = v'v > 0
        w = CL[q]
        proj, v = _project(Q, w)
        r = np.linalg.solve(R, proj) if active else proj
        if v @ v <= 1e-24 * (w @ w):
            return None, r, proj, v
        return Li.T @ v, r, proj, v

    for q in range(m):
        z, r, proj, v = direction(q)
        s = C[q] @ x + e[q]
        if z is None:
            if abs(s) > rounding(q):
                raise InfeasibleProblemError(f"equality {q} is inconsistent with the others")
            continue  # rank-deficient but consistent: its multiplier stays 0
        t = s / (v @ v)
        x = x - t * z
        u = np.append(u - t * r, t)
        active.append(q)
        Q, R = _append(Q, R, proj, v)

    ineq = np.arange(m, m + p)
    # each pass adds one inequality; the bound only guards against cycling
    for _ in range(10 * (n + m + p) + 10):
        s = G @ x + d
        viol = np.where(s > rounding(ineq), s, -np.inf)
        viol[[i - m for i in active if i >= m]] = -np.inf
        if not p or viol.max() == -np.inf:
            break
        q = m + int(np.argmax(viol))
        t_q = 0.0
        while True:
            z, r, proj, v = direction(q)
            ratios = np.full(len(active), np.inf)
            block = (np.array(active, dtype=int) >= m) & (r > 1e-12 * np.abs(r).max(initial=0.0))
            ratios[block] = u[block] / r[block]
            t_part = ratios.min(initial=np.inf)
            t_full = np.inf if z is None else (C[q] @ x + e[q]) / (v @ v)
            if t_full == np.inf and t_part == np.inf:
                raise InfeasibleProblemError(
                    f"inequality {q - m} cannot hold together with the active constraints"
                )
            t = min(t_full, t_part)
            u = u - t * r
            t_q += t
            if z is not None:
                x = x - t * z
            if t_full <= t_part:
                active.append(q)
                u = np.append(u, t_q)
                Q, R = _append(Q, R, proj, v)
                break
            drop = int(np.argmin(ratios))
            del active[drop]
            u = np.delete(u, drop)
            Q, R = np.zeros((n, 0)), np.zeros((0, 0))
            for i in active:
                Q, R = _append(Q, R, *_project(Q, CL[i]))
    else:
        raise InfeasibleProblemError("dual active-set iteration did not terminate")

    lam, mu = np.zeros(m), np.zeros(p)
    for i, ui in zip(active, u):
        if i < m:
            lam[i] = ui
        else:
            mu[i - m] = max(ui, 0.0)
    point = KktPoint(x, lam, mu)
    defect = kkt_residual(problem, point).max_defect
    if not defect <= ORACLE_TOL:  # a NaN defect is a failure too
        raise InfeasibleProblemError(
            f"active-set solution has KKT defect {defect:.2e} > {ORACLE_TOL:.2e}")
    return point
