import math

import numpy as np
import pytest
from scipy.optimize import linprog

from anonrelay.lp import SimplexError, solve_packing_lp


def test_single_path_bottleneck():
    # one variable through three capacity rows: the smallest cap binds
    value, x = solve_packing_lp([[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0], [1.0])
    assert value == 1.0
    assert x == [1.0]


def test_disjoint_paths_add():
    rows = [[1.0, 0.0], [0.0, 1.0]]
    value, x = solve_packing_lp(rows, [1.0, 1.0], [1.0, 1.0])
    assert value == 2.0
    assert x == [1.0, 1.0]


def test_shared_node_caps_sum():
    rows = [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    value, _ = solve_packing_lp(rows, [1.0, 1.0, 1.0], [1.0, 1.0])
    assert value == pytest.approx(1.0)


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        a = (rng.random((m, n)) < 0.5).astype(float)
        a[rng.integers(0, m), :] = 1.0  # every variable capped somewhere
        b = rng.uniform(0.5, 3.0, m)
        c = rng.uniform(0.1, 2.0, n)
        value, x = solve_packing_lp(a.tolist(), b.tolist(), c.tolist())
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert value == pytest.approx(-ref.fun, abs=1e-9)
        assert (a @ np.array(x) <= b + 1e-9).all()
        assert min(x) >= -1e-12


def test_exact_mode_agrees_with_float():
    rows = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
    b = [2.0, 2.0, 2.0]
    c = [1.0, 1.0, 1.0]
    vf, xf = solve_packing_lp(rows, b, c, exact=False)
    ve, xe = solve_packing_lp(rows, b, c, exact=True)
    assert vf == pytest.approx(ve, abs=1e-12)
    assert vf == pytest.approx(3.0)


def test_optimum_invariant_under_variable_reordering():
    rng = np.random.default_rng(11)
    a = (rng.random((5, 6)) < 0.5).astype(float)
    a[0, :] = 1.0
    b = rng.uniform(0.5, 2.0, 5).tolist()
    value, _ = solve_packing_lp(a.tolist(), b, [1.0] * 6)
    perm = rng.permutation(6)
    value2, _ = solve_packing_lp(a[:, perm].tolist(), b, [1.0] * 6)
    assert value == pytest.approx(value2, abs=1e-9)


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        solve_packing_lp([[0.0]], [1.0], [1.0])


def test_input_validation():
    with pytest.raises(ValueError):
        solve_packing_lp([[1.0, 2.0]], [1.0], [1.0])
    with pytest.raises(ValueError):
        solve_packing_lp([[1.0]], [-1.0], [1.0])


# A NaN objective used to solve to (nan, [0.0]) and an infinite capacity to
# (inf, [inf]), in either arithmetic.
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_rejected(bad, exact):
    for args, name in ((([[bad]], [1.0], [1.0]), "a_rows"), (([[1.0]], [bad], [1.0]), "b"),
                       (([[1.0]], [1.0], [bad]), "c")):
        with pytest.raises(ValueError, match=f"{name} must hold finite numbers only"):
            solve_packing_lp(*args, exact=exact)
