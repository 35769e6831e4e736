import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import weylconvex
from weylconvex.errors import InconsistencyError
from weylconvex.linalg import charpoly_int, cyclotomic_multiplicities
from weylconvex.roots import CartanType, build_root_system
from weylconvex.weyl import from_word


def charpoly_reference(M):
    """Faddeev-LeVerrier over Fractions: det(tI - M), constant term first."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    cur = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    cs = []
    for k in range(1, n + 1):
        cur = [
            [sum((A[i][t] * cur[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        ck = -sum((cur[i][i] for i in range(n)), Fraction(0)) / k
        cs.append(ck)
        for i in range(n):
            cur[i][i] += ck
    return list(reversed([Fraction(1)] + cs))


@pytest.mark.parametrize("n", range(1, 9))
def test_charpoly_int_matches_fraction_reference(n):
    rng = random.Random(100 + n)
    for _ in range(6):
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        got = charpoly_int(M)
        assert got == charpoly_reference(M)
        assert all(type(c) is int for c in got)


def test_charpoly_int_of_e8_coxeter_element_is_phi30():
    rs = build_root_system(CartanType("E", 8))
    c = from_word(rs, None, list(range(8)))
    # Phi_30(t) = t^8 + t^7 - t^5 - t^4 - t^3 + t + 1.
    assert charpoly_int(c.matrix()) == [1, 1, 0, -1, -1, -1, 0, 1, 1]


def test_charpoly_int_rejects_an_inexact_division():
    # Integer matrices always divide exactly; half-integers do not.
    with pytest.raises(InconsistencyError):
        charpoly_int([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])


def test_non_cyclotomic_polynomial_is_inconsistency():
    # t^2 - 3t + 1 has the real roots (3 +- sqrt 5) / 2.
    with pytest.raises(InconsistencyError):
        cyclotomic_multiplicities([1, -3, 1], 6)


def test_mat_mul_shape_check_survives_optimize():
    # A 1x3 times a 2x1 matrix; without the check the third column is dropped.
    script = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "from weylconvex.errors import InconsistencyError\n"
        "from weylconvex.linalg import mat_mul\n"
        "try:\n"
        "    mat_mul([[1, 2, 3]], [[1], [1]])\n"
        "except InconsistencyError:\n"
        "    sys.exit(3)\n"
        "sys.exit(0)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylconvex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
