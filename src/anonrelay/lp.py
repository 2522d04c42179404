"""Dense primal simplex for fractional packing programs.

Solves max c.x subject to A.x <= b, x >= 0 with b >= 0, which covers every
per-node capacity program in this package. The all-slack basis is feasible,
so no phase-one is needed; Bland's rule guarantees termination under
degeneracy. An exact mode runs the identical pivoting over `Fraction`.
"""
from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["solve_packing_lp", "SimplexError"]


class SimplexError(RuntimeError):
    pass


def solve_packing_lp(a_rows, b, c, exact: bool = False):
    """Maximize c.x s.t. A.x <= b, x >= 0.

    Returns (optimal value, x as list). `a_rows` is a dense row-major matrix.
    With `exact=True` all arithmetic is rational and the result is converted
    back to float at the end (ties in degenerate bases resolve identically on
    every run either way, via Bland's rule). A NaN or infinite entry in
    `a_rows`, `b` or `c` raises ValueError naming the argument.
    """
    m = len(a_rows)
    n = len(c)
    if any(len(r) != n for r in a_rows):
        raise ValueError("ragged constraint matrix")
    if len(b) != m:
        raise ValueError("capacity vector length mismatch")
    for name, values in (("a_rows", [v for r in a_rows for v in r]), ("b", b), ("c", c)):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{name} must hold finite numbers only")
    if exact:
        conv = Fraction
        zero = Fraction(0)
        tol = Fraction(0)
    else:
        conv = float
        zero = 0.0
        tol = 1e-11

    if any(conv(v) < zero for v in b):
        raise ValueError("capacities must be nonnegative")

    # tableau rows: [A | I | b], objective row: [-c | 0 | 0]
    tab = [[conv(v) for v in row] + [conv(int(i == j)) for j in range(m)] + [conv(b[i])]
           for i, row in enumerate(a_rows)]
    obj = [-conv(v) for v in c] + [zero] * m + [zero]
    basis = [n + i for i in range(m)]
    width = n + m

    for _ in range(10000 * (m + n + 1)):
        enter = -1
        for j in range(width):  # Bland: lowest eligible index
            if obj[j] < -tol:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > tol:
                ratio = tab[i][width] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise SimplexError("unbounded packing program")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != zero:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        if obj[enter] != zero:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter
    else:
        raise SimplexError("pivot limit exceeded")

    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][width]
    value = sum(conv(ci) * xi for ci, xi in zip(c, x))
    return float(value), [float(v) for v in x]
