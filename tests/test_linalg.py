import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import weylconvex
from weylconvex.errors import InconsistencyError
from weylconvex.linalg import rank, rank_mod_p, solve
from weylconvex.matrixgroup import RANK_PRIME, PrimeField, RationalField
from weylconvex.roots import CartanType, build_root_system
from weylconvex.weyl import from_word

from reference_geometry import charpoly_int, cyclotomic_multiplicities
from reference_matrix import OperatorField, rref
from reference_weyl import matrix


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
    assert charpoly_int(matrix(c)) == [1, 1, 0, -1, -1, -1, 0, 1, 1]


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
        "from reference_geometry import mat_mul\n"
        "try:\n"
        "    mat_mul([[1, 2, 3]], [[1], [1]])\n"
        "except InconsistencyError:\n"
        "    sys.exit(3)\n"
        "sys.exit(0)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylconvex.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr


def rank_reference(A):
    # Over Fractions, whatever rref does with int entries.
    return len(rref([[Fraction(v) for v in row] for row in A], OperatorField(Fraction(1)))[1])


def _random_entry(rng, rational, density):
    if rng.random() >= density:
        return 0
    v = rng.randint(-9, 9)
    return Fraction(v, rng.randint(1, 12)) if rational else v


def _random_matrix(rng, rows, cols, rational, density=1.0):
    return [[_random_entry(rng, rational, density) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
@pytest.mark.parametrize("density", [1.0, 0.3], ids=["dense", "sparse"])
def test_rank_matches_rref_on_random_matrices(rational, density):
    rng = random.Random(500 + 10 * rational + int(10 * density))
    for _ in range(30):
        rows, cols = rng.randint(1, 30), rng.randint(1, 40)
        A = _random_matrix(rng, rows, cols, rational, density)
        assert rank(A) == rank_reference(A), A


@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
def test_rank_of_thin_products(rational):
    # B C with B m x k and C k x n has rank at most k, usually exactly k.
    rng = random.Random(600 + rational)
    for _ in range(30):
        m, n, k = rng.randint(1, 30), rng.randint(1, 40), rng.randint(1, 6)
        B = _random_matrix(rng, m, k, rational)
        C = _random_matrix(rng, k, n, rational)
        A = [[sum((B[i][t] * C[t][j] for t in range(k)), 0) for j in range(n)] for i in range(m)]
        assert rank(A) == rank_reference(A) <= k
        # rref on the int entries themselves must stay exact.
        assert len(rref(A, OperatorField(Fraction(1)))[1]) == rank(A)


def test_rational_division_of_ints_is_exact():
    q = OperatorField(Fraction(1))
    assert type(q.div(1, 3)) is Fraction and q.div(1, 3) == Fraction(1, 3)
    assert q.div(q.mul(2, 3), q.neg(4)) == Fraction(-3, 2)


def test_rank_with_zero_and_duplicate_rows():
    rng = random.Random(700)
    for _ in range(30):
        rows, cols = rng.randint(1, 15), rng.randint(1, 40)
        A = _random_matrix(rng, rows, cols, rng.random() < 0.5)
        A += [[0] * cols, list(A[0]), [2 * v for v in A[-1]]]
        A += [list(A[rng.randrange(len(A))]) for _ in range(rng.randint(0, 10))]
        rng.shuffle(A)
        assert rank(A) == rank_reference(A)


@pytest.mark.parametrize(
    "A, expected",
    [
        ([], 0),
        ([[]], 0),
        ([[0, 0, 0]], 0),
        ([[0, Fraction(-3, 7), 5]], 1),
        ([[0], [0], [0]], 0),
        ([[0], [Fraction(1, 3)], [2]], 1),
        ([[Fraction(2, 3)]], 1),
        # A zero leading entry forces a row swap before the first pivot.
        ([[0, 1], [1, 0]], 2),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3),
    ],
    ids=[
        "empty", "no-columns", "zero-row", "one-row", "zero-column", "one-column",
        "one-by-one", "swap-2x2", "swap-3x3",
    ],
)
def test_rank_of_small_shapes(A, expected):
    assert rank(A) == expected == rank_reference(A)


@pytest.mark.parametrize("p", [2, 3, 101, RANK_PRIME, 2 ** 61 - 1])
def test_rank_mod_p_matches_rref_over_f_p(p):
    # Dense and sparse integer matrices, with zero, repeated and scaled
    # rows, and entries outside range(p), against rref over F_p.
    rng = random.Random(800 + p % 1000)
    field = PrimeField(p)
    for _ in range(40):
        rows, cols = rng.randint(1, 25), rng.randint(1, 30)
        A = _random_matrix(rng, rows, cols, False, rng.choice([1.0, 0.3]))
        A += [[0] * cols, list(A[0]), [p * v + 1 for v in A[-1]]]
        rng.shuffle(A)
        want = len(rref([[v % p for v in row] for row in A], field)[1])
        assert rank_mod_p(A, p) == want <= rank(A), (p, A)


SOLVE_FIELDS = {
    "F2": PrimeField(2),
    "F101": PrimeField(101),
    "F(2^61-1)": PrimeField(2 ** 61 - 1),
    "Q": RationalField(),
}


def _scalar(rng, field):
    if isinstance(field, RationalField):
        return field.div(rng.randint(-9, 9), rng.randint(1, 4))
    return field.random(rng)


def _times(field, A, v):
    out = []
    for row in A:
        acc = field.zero
        for a, x in zip(row, v):
            acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return out


def solve_reference(A, b, field):
    """Av = b solved off the reduced echelon form of [A | b]: None when the
    b column holds a pivot, else each pivot row's last entry, and the free
    variables 0.  Returns the pivot columns too."""
    cols = len(A[0])
    R, pivots = rref([list(row) + [v] for row, v in zip(A, b)], field)
    if pivots and pivots[-1] == cols:
        return None, pivots
    v = [field.zero] * cols
    for r, c in enumerate(pivots):
        v[c] = R[r][cols]
    return v, pivots


@pytest.mark.parametrize("name", SOLVE_FIELDS)
@pytest.mark.parametrize("shape", ["square", "over", "under"])
def test_solve_matches_rref_reference(name, shape):
    # A starts as B C, of rank at most k, and then loses a planted zero row
    # and column and about a fifth of its other entries.  Half of the right
    # sides are A x, so consistent; the other half are random, and a
    # planted zero row with a nonzero right side is inconsistent.
    field = SOLVE_FIELDS[name]
    rng = random.Random(f"solve-{shape}-{name}")
    verdicts = set()
    for trial in range(60):
        n = rng.randint(1, 6)
        extra = rng.randint(1, 4)
        rows, cols = {"square": (n, n), "over": (n + extra, n), "under": (n, n + extra)}[shape]
        k = rng.randint(0, min(rows, cols))
        B = [[_scalar(rng, field) for _ in range(k)] for _ in range(rows)]
        C = [[_scalar(rng, field) for _ in range(cols)] for _ in range(k)]
        A = [_times(field, list(zip(*C)), row) if k else [field.zero] * cols for row in B]
        zero_row = rng.randrange(rows) if rng.random() < 0.5 else None
        zero_col = rng.randrange(cols) if rng.random() < 0.5 else None
        for i, row in enumerate(A):
            for j in range(cols):
                if i == zero_row or j == zero_col or rng.random() < 0.2:
                    row[j] = field.zero
        if trial % 2:
            b = _times(field, A, [_scalar(rng, field) for _ in range(cols)])
        else:
            b = [_scalar(rng, field) for _ in range(rows)]
            if zero_row is not None and trial % 4 == 0:
                b[zero_row] = field.one
        got = solve(A, b, field)
        want, pivots = solve_reference(A, b, field)
        assert got == want, (A, b)
        if got is not None:
            assert _times(field, A, got) == b
            assert not any(got[c] for c in range(cols) if c not in pivots)
        verdicts.add(got is None)
    assert verdicts == {False, True}


@pytest.mark.parametrize(
    "A, b, expected",
    [
        ([], [], []),
        ([[]], [0], []),
        ([[]], [1], None),
        ([[0, 0]], [0], [0, 0]),
        ([[0, 0]], [1], None),
        ([[0, 2], [0, 4]], [1, 2], [0, Fraction(1, 2)]),
        ([[0, 2], [0, 4]], [1, 3], None),
    ],
    ids=["empty", "no-columns", "no-columns-inconsistent", "zero-row", "zero-row-inconsistent",
         "free-first", "dependent-rows-inconsistent"],
)
def test_solve_small_shapes(A, b, expected):
    assert solve(A, b, RationalField()) == expected
