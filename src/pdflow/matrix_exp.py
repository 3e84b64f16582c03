"""The matrix exponential, numpy only.

Affine runs propagate each mode exactly as z(t + h) = exp(h Z) z(t) (see
`integrator`); this module computes exp by scaling and squaring with a Pade
approximant (Higham, "The scaling and squaring method for the matrix
exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005; Moler & Van
Loan, "Nineteen dubious ways to compute the exponential of a matrix",
SIAM Rev. 45, 2003).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expm"]

# Pade degree -> (largest 1-norm the degree serves, numerator coefficients).
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


def expm(A) -> np.ndarray:
    """exp(A) by scaling and squaring with a Pade approximant, numpy only.

    Higham's 2005 method: the lowest Pade degree among 3, 5, 7, 9 whose bound
    covers the 1-norm of A, else degree 13 on A / 2^s followed by s
    squarings. Rows of A that are zero give the identity's rows exactly, so a
    clamped multiplier and the constant coordinate of an augmented system are
    carried unchanged. A non-finite A gives a result of NaNs.
    """
    A = np.asarray(A, dtype=float)
    ident = np.eye(A.shape[0])
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full_like(A, np.nan)
    degree = next((d for d in (3, 5, 7, 9) if norm <= _PADE[d][0]), 13)
    squarings = 0
    if norm > _PADE[13][0]:
        squarings = math.ceil(math.log2(norm / _PADE[13][0]))
        A = A / 2.0**squarings
    b = _PADE[degree][1]
    A2 = A @ A
    if degree < 13:
        powers = [ident, A2]
        while len(powers) < len(b) // 2:
            powers.append(powers[-1] @ A2)
        U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
        V = sum(b[2 * k] * P for k, P in enumerate(powers))
    else:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        E = E @ E
    zero = ~A.any(axis=1)
    E[zero] = ident[zero]
    return E
