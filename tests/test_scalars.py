import random
from fractions import Fraction

import pytest

from ttpkit.scalars import (
    QQ,
    DivisionByZero,
    EchelonSpan,
    FieldMismatch,
    NestedExtension,
    NoRoot,
    PrimeField,
    QuadExtField,
    ScalarMatrix,
    SquareRadicand,
    Unsupported,
    parse_scalar,
    solve_quadratic,
)


def test_rational_arithmetic():
    half = QQ.scalar(Fraction(1, 2))
    third = QQ.scalar(Fraction(1, 3))
    assert half + third == QQ.scalar(Fraction(5, 6))
    assert (half * 2) == QQ.one()
    assert str(-half) == "-1/2"


def test_gf7_inverse():
    F = PrimeField(7)
    assert F.scalar(3).inv() == F.scalar(5)
    with pytest.raises(DivisionByZero):
        F.zero().inv()


def test_quadext_sqrt2_squares_to_two():
    E = QuadExtField(QQ, 2)
    r = E.root()
    assert r * r == E.scalar(2)
    assert str(r) == "sqrt(2)"
    assert str(E.scalar(1) - r) == "1-sqrt(2)"


def test_quadext_refuses_square_radicand():
    with pytest.raises(SquareRadicand) as info:
        QuadExtField(QQ, 4)
    assert info.value.root == QQ.scalar(2)
    with pytest.raises(NestedExtension):
        QuadExtField(QuadExtField(QQ, 2), 3)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ.scalar(1) + PrimeField(5).scalar(1)


def test_inverse_involution_random():
    rng = random.Random(7)
    fields = [QQ, PrimeField(7), PrimeField(101), QuadExtField(QQ, 5)]
    for field in fields:
        for _ in range(25):
            if field is QQ:
                x = field.scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
            elif isinstance(field, QuadExtField):
                x = field.scalar(rng.randint(-9, 9)) + field.root() * field.scalar(rng.randint(-9, 9))
            else:
                x = field.scalar(rng.randint(0, field.p - 1))
            if x.is_zero():
                continue
            assert x.inv().inv() == x
            assert x * x.inv() == field.one()


def test_solve_quadratic_trivial_cases():
    one, zero = QQ.one(), QQ.zero()
    res = solve_quadratic(one, zero, -one)
    assert sorted(str(r) for r in res.roots) == ["-1", "1"]
    assert res.multiplicities == [1, 1]
    # coefficients (a+b, 2a-b^2-1, a+b) at a=0, b=1 give q^2 - 2q + 1
    res = solve_quadratic(one, QQ.scalar(-2), one)
    assert res.roots == [one]
    assert res.multiplicities == [2]


def test_solve_quadratic_adjoins_sqrt2():
    res = solve_quadratic(QQ.one(), QQ.zero(), QQ.scalar(-2))
    assert res.extended
    E = res.field
    assert isinstance(E, QuadExtField)
    # squarefree reduction should give radicand 2 (discriminant is 8)
    assert E.m == QQ.scalar(2)
    assert {str(r) for r in res.roots} == {"sqrt(2)", "-sqrt(2)"}


def test_solve_quadratic_roots_satisfy_polynomial():
    rng = random.Random(11)
    for field in (QQ, PrimeField(101)):
        for _ in range(30):
            coeffs = [field.scalar(rng.randint(-10, 10)) for _ in range(3)]
            p2, p1, p0 = coeffs
            if p2.is_zero() and p1.is_zero():
                continue
            res = solve_quadratic(p2, p1, p0)
            F = res.field
            for r in res.roots:
                p2e = F.embed(p2) if res.extended else p2
                p1e = F.embed(p1) if res.extended else p1
                p0e = F.embed(p0) if res.extended else p0
                assert (p2e * r * r + p1e * r + p0e).is_zero()
            if not p2.is_zero():
                prod = res.roots[0] * res.roots[-1]
                expect = p0 / p2
                assert prod == (F.embed(expect) if res.extended else expect)


def test_solve_quadratic_vieta_unit_product():
    # with leading and constant coefficient both a+b, the roots multiply to 1
    rng = random.Random(13)
    for _ in range(20):
        a = QQ.scalar(rng.randint(-8, 8))
        b = QQ.scalar(rng.randint(-8, 8))
        if (a + b).is_zero():
            continue
        res = solve_quadratic(a + b, 2 * a - b * b - 1, a + b)
        prod = res.roots[0] * res.roots[-1]
        assert prod == res.field.one() if res.extended else prod == QQ.one()


def test_solve_quadratic_errors():
    with pytest.raises(NoRoot):
        solve_quadratic(QQ.zero(), QQ.zero(), QQ.one())
    F2 = PrimeField(2)
    with pytest.raises(Unsupported):
        # q^2 + q + 1 is irreducible over GF(2)
        solve_quadratic(F2.one(), F2.one(), F2.one())
    res = solve_quadratic(F2.one(), F2.one(), F2.zero())
    assert sorted(str(r) for r in res.roots) == ["0", "1"]


def test_rank_kernel_examples():
    I2 = ScalarMatrix.identity(QQ, 2)
    rank, ker = I2.rank_kernel()
    assert rank == 2 and ker.ncols == 0

    M = ScalarMatrix(QQ, [[1, 1], [1, 1]])
    rank, ker = M.rank_kernel()
    assert rank == 1 and ker.ncols == 1
    v = ker.column(0)
    assert (v[0] + v[1]).is_zero() and not v[0].is_zero()

    Z = ScalarMatrix.zero(QQ, 3, 4)
    rank, ker = Z.rank_kernel()
    assert rank == 0 and ker.ncols == 4


def test_rank_kernel_random_properties():
    rng = random.Random(17)
    for field in (QQ, PrimeField(7)):
        for _ in range(20):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            M = ScalarMatrix(field, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
            rank, ker = M.rank_kernel()
            assert rank + ker.ncols == n
            for j in range(ker.ncols):
                col = ker.column(j)
                image = [sum((M[i, k] * col[k] for k in range(n)), field.zero()) for i in range(m)]
                assert all(x.is_zero() for x in image)
            # pivot-choice independence: recompute after a random row shuffle
            rows = [M.row(i) for i in range(m)]
            rng.shuffle(rows)
            assert ScalarMatrix(field, rows).rank() == rank


def _random_matrix(rng, field, m, n):
    """Entries in [-3, 3], half of them zero; every third matrix is a product of rank <= 2."""
    def entry():
        return rng.randint(-3, 3) if rng.random() < 0.5 else 0

    if rng.random() < 1 / 3:
        left = [[entry() for _ in range(2)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(2)]
        return ScalarMatrix(field, left) * ScalarMatrix(field, right)
    return ScalarMatrix(field, [[entry() for _ in range(n)] for _ in range(m)])


def _shapes(rng):
    """Square, tall and wide shapes, then all-zero ones."""
    for _ in range(40):
        yield rng.randint(1, 6), rng.randint(1, 9), False
    for m, n in ((1, 1), (3, 2), (2, 5)):
        yield m, n, True


def _kernel_rows(ker):
    return [ker.column(j) for j in range(ker.ncols)]


def test_rank_kernel_matches_sympy_over_q():
    from sympy import QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(41)
    for m, n, zero in _shapes(rng):
        M = ScalarMatrix.zero(QQ, m, n) if zero else _random_matrix(rng, QQ, m, n)
        rows = [[SQQ(int(e.payload.numerator), int(e.payload.denominator)) for e in M.row(i)] for i in range(m)]
        ref = DomainMatrix(rows, (m, n), SQQ)
        rank, ker = M.rank_kernel()
        assert rank == ref.rank()
        want = [
            [Fraction(int(x.numerator), int(x.denominator)) for x in row]
            for row in ref.nullspace(divide_last=True).to_list()
        ]
        assert [[x.payload for x in col] for col in _kernel_rows(ker)] == want


def test_rank_kernel_matches_sympy_over_gf():
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(43)
    for p in (2, 7, 101):
        F, SF = PrimeField(p), GF(p)
        for m, n, zero in _shapes(rng):
            M = ScalarMatrix.zero(F, m, n) if zero else _random_matrix(rng, F, m, n)
            ref = DomainMatrix([[SF(e.payload) for e in M.row(i)] for i in range(m)], (m, n), SF)
            rank, ker = M.rank_kernel()
            assert rank == ref.rank()
            want = [[int(x) % p for x in row] for row in ref.nullspace(divide_last=True).to_list()]
            assert [[x.payload for x in col] for col in _kernel_rows(ker)] == want


def test_rank_kernel_over_quadratic_extension():
    E = QuadExtField(QQ, 2)
    r = E.root()
    rng = random.Random(47)
    for m, n, zero in _shapes(rng):
        if zero:
            M = ScalarMatrix.zero(E, m, n)
        else:
            A, B = _random_matrix(rng, E, m, n), _random_matrix(rng, E, m, n)
            M = ScalarMatrix(E, [[a + b * r for a, b in zip(A.row(i), B.row(i))] for i in range(m)])
        rank, ker = M.rank_kernel()
        assert rank + ker.ncols == n
        cols = _kernel_rows(ker)
        for col in cols:
            assert all(x.is_zero() for x in (M * ScalarMatrix(E, [[x] for x in col])).column(0))
        # the free column of each basis vector is its last nonzero entry: 1
        # there, 0 in every other basis vector
        free = [max(i for i, x in enumerate(col) if not x.is_zero()) for col in cols]
        assert len(set(free)) == len(free)
        for k, col in enumerate(cols):
            assert [col[j] for j in free] == [E.one() if i == k else E.zero() for i in range(len(free))]


def _sympy_domain(field):
    """(sympy domain, payload -> domain element, domain element -> payload) for field."""
    from sympy import GF, Rational, sqrt
    from sympy import QQ as SQQ

    def frac(q):
        return Fraction(int(q.numerator), int(q.denominator))

    if field == QQ:
        return SQQ, lambda a: SQQ(a.numerator, a.denominator), frac
    if isinstance(field, PrimeField):
        SF = GF(field.p)
        return SF, SF, lambda x: int(x) % field.p
    K = SQQ.algebraic_field(sqrt(2))

    def to_payload(x):
        v_u = [frac(q) for q in x.to_list()]
        v_u = [Fraction(0)] * (2 - len(v_u)) + v_u
        return (v_u[1], v_u[0])

    def to_domain(a):
        return K.from_sympy(Rational(a[0].numerator, a[0].denominator)
                            + Rational(a[1].numerator, a[1].denominator) * sqrt(2))

    return K, to_domain, to_payload


def _sparse_matrix(rng, field, m, n):
    """m x n at density 5-20%, about one row in five a copy of an earlier row."""
    if isinstance(field, PrimeField):
        def value():
            return rng.randrange(1, field.p)
    elif field == QQ:
        def value():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))
    else:
        def value():
            u, v = rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])
            return field.scalar(u) + field.scalar(v) * field.root()
    density = rng.uniform(0.05, 0.2)
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.2:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append([value() if rng.random() < density else 0 for _ in range(n)])
    return ScalarMatrix(field, rows)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7), PrimeField(101), QuadExtField(QQ, 2)],
                         ids=["Q", "GF2", "GF7", "GF101", "Qsqrt2"])
def test_sparse_elimination_matches_sympy(field):
    from sympy.polys.matrices import DomainMatrix

    dom, to_domain, to_payload = _sympy_domain(field)
    zero = field.zero().payload
    rng = random.Random(53)
    seen = {"empty row": 0, "empty column": 0, "repeated row": 0}
    for _ in range(12):
        m, n = rng.randint(4, 24), rng.randint(4, 24)
        M = _sparse_matrix(rng, field, m, n)
        dense = [[to_domain(M.rows[i].get(j, zero)) for j in range(n)] for i in range(m)]
        seen["empty row"] += sum(not row for row in M.rows)
        seen["empty column"] += sum(all(j not in row for row in M.rows) for j in range(n))
        seen["repeated row"] += m - len({tuple(sorted(row.items())) for row in M.rows})

        rank, ker = M.rank_kernel()
        ref = DomainMatrix(dense, (m, n), dom)
        assert rank == ref.rank()
        want = [[to_payload(x) for x in row] for row in ref.nullspace(divide_last=True).to_list()]
        assert [[x.payload for x in col] for col in _kernel_rows(ker)] == want

        # incremental inserts: the rank grows exactly when a recount says so
        span = EchelonSpan(field)
        before = 0
        for k, row in enumerate(M.rows):
            kept = dict(row)
            after = DomainMatrix(dense[: k + 1], (k + 1, n), dom).rank()
            assert span.insert(row) == (after > before)
            assert row == kept and span.rank == after
            before = after
        assert all(span.contains(row) for row in M.rows)
    assert all(seen.values()), seen


def test_matrix_det_and_solve():
    M = ScalarMatrix(QQ, [[2, 1], [1, 1]])
    assert M.det() == QQ.one()
    x = M.solve([QQ.scalar(3), QQ.scalar(2)])
    assert x == [QQ.one(), QQ.one()]
    S = ScalarMatrix(QQ, [[1, 2], [2, 4]])
    assert S.det().is_zero()
    assert S.solve([QQ.scalar(1), QQ.scalar(3)]) is None
    assert S.solve([QQ.scalar(1), QQ.scalar(2)]) == [QQ.one(), QQ.zero()]
    with pytest.raises(ValueError):
        ScalarMatrix.identity(QQ, 3).det()


def test_echelon_span():
    span = EchelonSpan(QQ)
    assert span.insert({0: Fraction(1), 1: Fraction(2)})
    assert span.insert({1: Fraction(1), 2: Fraction(1)})
    assert not span.insert({0: Fraction(1), 1: Fraction(3), 2: Fraction(1)})
    assert span.rank == 2
    assert span.contains({0: Fraction(2), 1: Fraction(5), 2: Fraction(1)})
    assert not span.contains({2: Fraction(1)})


def test_parse_scalar():
    assert parse_scalar(QQ, "-3/4") == QQ.scalar(Fraction(-3, 4))
    F7 = PrimeField(7)
    assert parse_scalar(F7, "10") == F7.scalar(3)
    assert parse_scalar(F7, "1/3") == F7.scalar(5)
    E = QuadExtField(QQ, 2)
    s = parse_scalar(E, "1/2 + 3*sqrt(2)")
    assert s == E.embed(QQ.scalar(Fraction(1, 2))) + E.embed(QQ.scalar(3)) * E.root()
    # canonical printing round-trips
    assert parse_scalar(E, str(s)) == s


def test_gf_sqrt():
    F = PrimeField(101)
    squares = {(i * i) % 101 for i in range(101)}
    for a in range(101):
        s = F.sqrt(F.scalar(a))
        if a in squares:
            assert s is not None and s * s == F.scalar(a)
        else:
            assert s is None


def test_quadext_sqrt_of_extension_element():
    E = QuadExtField(QQ, 2)
    # (1 + sqrt(2))^2 = 3 + 2 sqrt(2)
    t = E.scalar(3) + E.scalar(2) * E.root()
    r = E.sqrt(t)
    assert r is not None and r * r == t
    assert E.sqrt(E.scalar(7)) is None
