import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_payload, reference_solve_quadratic
from ttpkit.scalars import (
    QQ,
    DivisionByZero,
    EchelonSpan,
    Field,
    FieldError,
    FieldMismatch,
    NestedExtension,
    NoRoot,
    PrimeField,
    QuadExtField,
    RadicandTooLarge,
    Scalar,
    ScalarMatrix,
    SquareRadicand,
    Unsupported,
    _is_prime,
    _squarefree_split,
    adjoin_sqrt,
    parse_scalar,
    solve_quadratic,
)


def test_rational_arithmetic():
    half = QQ.scalar(Fraction(1, 2))
    third = QQ.scalar(Fraction(1, 3))
    assert half + third == QQ.scalar(Fraction(5, 6))
    assert (half * 2) == QQ.one()
    assert str(-half) == "-1/2"


def test_integral_rational_payloads_are_ints():
    half = QQ.scalar(Fraction(1, 2))
    cases = [
        (half + half, 1), (QQ.scalar(2) * half, 1), (half.inv(), 2),
        (QQ.scalar(Fraction(4, 2)), 2), (QQ.scalar(True), 1), (QQ.sqrt(QQ.scalar(4)), 2),
        (QQ.scalar(1).inv(), 1), (QQ.scalar(-1).inv(), -1), (QQ.scalar(Fraction(-1, 5)).inv(), -5),
        # 1/a on an int is a float in Python; the inverse must stay exact
        (QQ.scalar(2).inv(), Fraction(1, 2)), (QQ.scalar(-3).inv(), Fraction(-1, 3)),
        (QQ.scalar(Fraction(-2, 5)).inv(), Fraction(-5, 2)), (QQ.sqrt(QQ.scalar(Fraction(4, 9))), Fraction(2, 3)),
    ]
    for s, want in cases:
        assert type(s.payload) is type(want) and s.payload == want, (s.payload, want)


def test_int_and_fraction_payloads_agree():
    # a payload built outside the hooks may still be an integral Fraction
    for n in (0, 1, -7, 12):
        i, f = Scalar(QQ, n), Scalar(QQ, Fraction(n))
        assert i == f and hash(i) == hash(f) and str(i) == str(f)
        assert i == QQ.scalar(n) and f == QQ.scalar(Fraction(n, 1))


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


def _roots_outcome(solve, coeffs):
    try:
        res = solve(*coeffs)
    except FieldError as exc:
        return type(exc), str(exc)
    return res.field, res.roots, [type(r.payload) for r in res.roots], res.multiplicities, res.extended


def test_solve_quadratic_matches_the_scalar_reference():
    # the roots are computed on payloads; the reference divides Scalars
    rng = random.Random(127)
    sqrt2 = QuadExtField(QQ, 2)
    cases = [
        (QQ, lambda: QQ.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))),
        (PrimeField(101), lambda: PrimeField(101).scalar(rng.randint(0, 100))),
        (sqrt2, lambda: sqrt2.scalar(rng.randint(-4, 4)) + sqrt2.scalar(rng.randint(-4, 4)) * sqrt2.root()),
    ]
    seen = set()
    for field, draw in cases:
        for _ in range(40):
            coeffs = [draw() for _ in range(3)]
            if all(c.is_zero() for c in coeffs):
                continue
            got = _roots_outcome(solve_quadratic, coeffs)
            assert got == _roots_outcome(reference_solve_quadratic, coeffs), (field, coeffs)
            seen.add((field, got[0] if isinstance(got[0], type) else got[-1]))
    assert {(QQ, True), (QQ, False), (PrimeField(101), True), (PrimeField(101), False)} <= seen
    assert {(sqrt2, NestedExtension), (sqrt2, False)} <= seen


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


KERNEL_FIELDS = {
    "Q": QQ,
    "GF7": PrimeField(7),
    "GF32003": PrimeField(32003),
    "Qsqrt2": QuadExtField(QQ, 2),
    "GF7sqrt3": QuadExtField(PrimeField(7), 3),
}
# a rational n/d with d in 1..4: integral and fractional Q payloads, and no
# denominator divisible by 7
_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _element(field, parts):
    """The Scalar u + v*sqrt(m) of an extension, or u in a base field."""
    u, v = parts
    if isinstance(field, QuadExtField):
        return field.embed(field.base.scalar(u)) + field.embed(field.base.scalar(v)) * field.root()
    return field.scalar(u)


@st.composite
def _kernel_case(draw):
    """(field, out, c, row): sparse payload rows with no zero, and a nonzero c.

    Each entry of out is random, or is -c*y (exact cancellation) or
    n - c*y with n an integer (over Q a Fraction sum demoted to an int),
    for the entry y of row at the same key.
    """
    name = draw(st.sampled_from(sorted(KERNEL_FIELDS)))
    field = KERNEL_FIELDS[name]
    elements = st.tuples(_RATIONAL, _RATIONAL).map(lambda parts: _element(field, parts))
    nonzero = elements.filter(lambda x: not x.is_zero())
    c = draw(nonzero)
    row = draw(st.dictionaries(st.integers(0, 7), nonzero, max_size=8))
    out = {}
    for j in draw(st.lists(st.integers(0, 7), max_size=8, unique=True)):
        mode = draw(st.sampled_from(("random", "cancel", "demote")) if j in row else st.just("random"))
        if mode == "random":
            x = draw(elements)
        elif mode == "cancel":
            x = -(c * row[j])
        else:
            x = field.scalar(draw(st.integers(-3, 3))) - c * row[j]
        if not x.is_zero():
            out[j] = x
    return name, {j: x.payload for j, x in out.items()}, c.payload, {j: x.payload for j, x in row.items()}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_kernel_case())
def test_add_multiple_kernels_match_the_hook_loop(case):
    # each field kind's sparse-row kernel against the base class's loop on
    # the hooks, and against Scalar arithmetic entry by entry
    name, out, c, row = case
    field = KERNEL_FIELDS[name]
    got, want = dict(out), dict(out)
    field._add_multiple(got, c, row)
    Field._add_multiple(field, want, c, row)
    assert got == want and list(got) == list(want), (name, out, c, row)
    zero = field.zero()
    for j in sorted(set(out) | set(row)):
        value = Scalar(field, out[j]) if j in out else zero
        if j in row:
            value = value + Scalar(field, c) * Scalar(field, row[j])
        assert (j in got) == (not value.is_zero()), (name, j)
        if j in got:
            assert Scalar(field, got[j]) == value
    for j, a in got.items():
        assert is_payload(field, a) and not field._is_zero(a), (name, j, a)


# Carmichael numbers, and strong pseudoprimes: 3215031751 to bases 2, 3, 5
# and 7, 3825123056546413051 to the first nine prime bases, and
# 318665857834031151167461 to the first twelve
PSEUDOPRIMES = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633, 62745,
    63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545, 294409,
    314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461, 3215031751,
    3825123056546413051, 318665857834031151167461,
)


def test_is_prime_matches_sympy():
    rng = random.Random(23)
    samples = [*range(-3, 3000), *PSEUDOPRIMES]
    for bits in (20, 40, 64, 80):
        samples += [rng.getrandbits(bits) for _ in range(300)]
        samples += [sympy.randprime(2 ** (bits - 1), 2**bits) for _ in range(20)]
        half = bits // 2
        samples += [sympy.randprime(2 ** (half - 1), 2**half) * sympy.randprime(2 ** (half - 1), 2**half)
                    for _ in range(20)]
    for n in samples:
        assert _is_prime(n) == sympy.isprime(n), n
    assert not any(_is_prime(n) for n in PSEUDOPRIMES)


def test_is_prime_refuses_to_guess_past_its_bound():
    # 3317044064679887385961981 is a strong pseudoprime to the first 13
    # prime bases, so Miller-Rabin on them is exact only below it
    with pytest.raises(FieldError, match="not decided"):
        _is_prime(3317044064679887385961981)
    with pytest.raises(FieldError, match="not decided"):
        PrimeField(10**25 + 13)
    assert _is_prime(3317044064679887385961979) == sympy.isprime(3317044064679887385961979)


def _squarefree_by_trial_division_to_the_root(n):
    """(sq, m) with n = sq^2 m, m squarefree: the loop adjoin_sqrt ran before it had a trial bound."""
    sq, k = 1, 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            sq *= k
        k += 1
    return sq, n


def test_adjoin_sqrt_radicands_match_trial_division_to_the_root():
    rng = random.Random(29)
    samples = [rng.randrange(1, 10**digits) for digits in range(1, 11) for _ in range(4)]
    samples += [rng.randrange(1, 1000) ** 2 * rng.randrange(2, 10**4) for _ in range(20)]
    for n in samples:
        for num, den in ((n, 1), (-n, 1), (n, rng.randrange(2, 50))):
            field, root = adjoin_sqrt(QQ.scalar(Fraction(num, den)))
            sq, m = _squarefree_by_trial_division_to_the_root(abs(num) * den)
            m = m if num > 0 else -m
            if m == 1:
                assert field == QQ and root == QQ.scalar(Fraction(sq, den)), (num, den)
            else:
                assert field.m == QQ.scalar(m), (num, den)
                assert root == field.embed(QQ.scalar(Fraction(sq, den))) * field.root(), (num, den)


def test_squarefree_split_past_the_trial_bound_matches_sympy():
    # cofactors with no prime factor below 10^6: p^2, pq and p^2 q decide
    # below 10^18; p^2 q with both primes above 10^6 is past that and raises
    rng = random.Random(31)
    primes = [sympy.nextprime(10**6 + rng.randrange(10**4)) for _ in range(3)]
    small = [rng.randrange(1, 10**4) for _ in range(3)]
    samples = [p * p * s for p, s in zip(primes, small)]
    samples += [p * q * s for p, q, s in zip(primes, primes[1:], small)]
    samples += [p * p * sympy.prevprime(10**6 - rng.randrange(10**4)) for p in primes]
    for n in samples:
        sq = m = 1
        for prime, exp in sympy.factorint(n).items():
            sq *= prime ** (exp // 2)
            m *= prime ** (exp % 2)
        assert _squarefree_split(n) == (sq, m), n
    for p, q in zip(primes, primes[1:]):
        with pytest.raises(RadicandTooLarge, match="not decided"):
            _squarefree_split(p * p * q)
