import random
import tracemalloc
from fractions import Fraction

import pytest
from helpers import is_payload, reference_nonvanishing, reference_orbit

from ttpkit.cli import _fn_scans
from ttpkit.scalars import QQ, PrimeField, QuadExtField
from ttpkit.sequences import efgh, efgh_table, fn_nonvanishing, fn_scan_mod_p


def test_base_cases():
    q = efgh(QQ.scalar(3), QQ.scalar(5), 0)
    assert (q.e, q.f, q.g, q.h) == (QQ.one(), QQ.one(), QQ.scalar(-5), QQ.scalar(-3))


def test_first_step_matches_cubic_rule_coefficients():
    a, b = QQ.scalar(3), QQ.scalar(5)
    q = efgh(a, b, 1)
    assert q.e == b + 1
    assert q.f == 1 - a
    assert q.g == a - b * b
    assert q.h == -a * (b + 1)


def test_f2_closed_form():
    # two recurrence steps give f2 = 1 - 2a - ab
    rng = random.Random(67)
    for _ in range(20):
        a = QQ.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = QQ.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert efgh(a, b, 2).f == 1 - 2 * a - a * b
    # cross-check against the diagonal specialization below
    a = QQ.scalar(Fraction(2, 7))
    assert efgh(a, -a, 2).f == (1 - a) * (1 - a)


def test_diagonal_specialization_is_a_power():
    rng = random.Random(71)
    for field in (QQ, PrimeField(101)):
        for _ in range(10):
            a = field.scalar(rng.randint(-20, 20))
            rows = efgh_table(a, -a, 10)
            for n, row in enumerate(rows):
                assert row.f == (field.one() - a) ** n
                assert row.e == row.f  # e_n(a, -a) = f_n(a, -a)


def test_definition_identities():
    rng = random.Random(73)
    for _ in range(15):
        a = QQ.scalar(rng.randint(-9, 9))
        b = QQ.scalar(rng.randint(-9, 9))
        rows = efgh_table(a, b, 8)
        for row in rows:
            assert row.g == (1 - b) * row.e - row.f
            assert row.h == -a * row.e
        # derived recurrences: g_n = b g_{n-1} - h_{n-1}, h_n = h_{n-1} + a g_{n-1}
        for prev, cur in zip(rows, rows[1:]):
            assert cur.g == b * prev.g - prev.h
            assert cur.h == prev.h + a * prev.g


def test_nonvanishing_verdicts():
    assert fn_nonvanishing(QQ.one(), QQ.scalar(5), 10).zero_index == 1
    report = fn_nonvanishing(QQ.zero(), QQ.scalar(9), 40)
    assert report.all_nonzero
    half = QQ.scalar(Fraction(1, 2))
    assert fn_nonvanishing(half, QQ.zero(), 10).zero_index == 2


def test_cycle_certificate_over_finite_fields():
    F = PrimeField(3)
    hits = 0
    for a in range(3):
        for b in range(3):
            report = fn_nonvanishing(F.scalar(a), F.scalar(b), 50)
            assert report.all_nonzero == (report.zero_index is None)
            if report.all_nonzero:
                # with bound 50 > 3^2 the scan must have closed the orbit
                assert report.cycle_closed
                hits += 1
    assert hits > 0


def test_cycle_certificate_matches_long_scan():
    F = PrimeField(7)
    rng = random.Random(79)
    for _ in range(25):
        a, b = F.scalar(rng.randrange(7)), F.scalar(rng.randrange(7))
        short = fn_nonvanishing(a, b, 60)  # 60 > 7^2, always conclusive
        long = fn_nonvanishing(a, b, 500)
        assert short.all_nonzero == long.all_nonzero
        if not short.all_nonzero:
            assert short.zero_index == long.zero_index


ORBIT_FIELDS = {
    "Q": QQ,
    "GF7": PrimeField(7),
    "GF32003": PrimeField(32003),
    "Qsqrt2": QuadExtField(QQ, 2),
    "GF7sqrt3": QuadExtField(PrimeField(7), 3),
}


def _draw_scalar(field, rng):
    if isinstance(field, QuadExtField):
        u, v = (field.embed(_draw_scalar(field.base, rng)) for _ in range(2))
        return u + field.root() * v
    if field == QQ:
        return field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return field.scalar(rng.randrange(field.p))


@pytest.mark.parametrize("name", ORBIT_FIELDS)
def test_payload_orbit_matches_the_scalar_orbit(name):
    # the orbit steps raw payloads; every row, report and payload type must
    # match the recurrence stepped with Scalar operators
    field = ORBIT_FIELDS[name]
    rng = random.Random(sum(map(ord, name)))
    draws = [(field.zero(), _draw_scalar(field, rng)), (field.one(), field.scalar(-1))]
    draws += [(_draw_scalar(field, rng), _draw_scalar(field, rng)) for _ in range(12)]
    for a, b in draws:
        ref = reference_orbit(a, b, 12)
        table = efgh_table(a, b, 12)
        assert [(r.e, r.f, r.g, r.h) for r in table] == ref
        assert [r.n for r in table] == list(range(13))
        for n in (0, 5, 12):
            row = efgh(a, b, n)
            assert (row.n, row.e, row.f, row.g, row.h) == (n, *ref[n])
        for row in table:
            for x in (row.e, row.f, row.g, row.h):
                assert x.field == field and is_payload(field, x.payload), (a, b, row)
        for bound in (1, 7, 60):
            report = fn_nonvanishing(a, b, bound)
            assert (report.zero_index, report.cycle_closed) == reference_nonvanishing(a, b, bound), (a, b, bound)
            assert report.all_nonzero == (report.zero_index is None)
            # a zero reports the e_n it was found with
            if report.zero_index is None:
                assert report.zero_e is None
            else:
                e = reference_orbit(a, b, report.zero_index)[-1][0]
                assert report.zero_e == e and is_payload(field, report.zero_e.payload), (a, b, bound)


PERIODIC_FIELDS = {f"GF{p}": PrimeField(p) for p in (2, 3, 5, 7, 11, 13)}
PERIODIC_FIELDS.update({"GF3sqrt2": QuadExtField(PrimeField(3), 2), "GF5sqrt2": QuadExtField(PrimeField(5), 2)})


def _elements(field):
    if isinstance(field, QuadExtField):
        base = field.base.elements()
        return [field.embed(u) + field.root() * field.embed(v) for u in base for v in base]
    return field.elements()


@pytest.mark.parametrize("name", PERIODIC_FIELDS)
def test_scan_closes_on_the_return_to_one_one(name):
    # over a finite field the first repeated state of the (e, f) orbit is
    # (1, 1) itself, so the scan that stops on the return to (1, 1) must give
    # the set-based reference's verdict for every (a, b) and every bound
    # around q, q^2 and the census bound 50
    field = PERIODIC_FIELDS[name]
    elements = _elements(field)
    q = len(elements)
    bounds = sorted({1, 2, q - 1, q, q + 1, q * q - 1, q * q, q * q + 1, 50})
    for a in elements:
        for b in elements:
            event = None
            for bound in bounds:
                # the reference scans a prefix of the orbit, so once it has
                # seen a zero or a repeat every larger bound gives the same
                if event is None:
                    expected = reference_nonvanishing(a, b, bound)
                    event = None if expected == (None, False) else expected
                else:
                    expected = event
                report = fn_nonvanishing(a, b, bound)
                assert (report.zero_index, report.cycle_closed) == expected, (a, b, bound)


@pytest.mark.parametrize("name", PERIODIC_FIELDS)
def test_a_plus_b_zero_makes_one_one_an_eigenvector(name):
    # det = a + b = 0: (e_1, f_1) = (b + 1)(1, 1), so the orbit is the powers
    # of b + 1 times (1, 1); b = -1 vanishes at n = 1, any other b closes the
    # cycle at the multiplicative order of b + 1
    field = PERIODIC_FIELDS[name]
    elements = _elements(field)
    one = field.one()
    for b in elements:
        a = -b
        if a.is_zero():
            continue
        s = b + 1
        if s.is_zero():
            assert fn_nonvanishing(a, b, 1).zero_index == 1
            assert reference_nonvanishing(a, b, 1) == (1, False)
            continue
        order = next(k for k in range(2, len(elements)) if s**k == one)  # s != 1, since a != 0
        assert not fn_nonvanishing(a, b, order - 1).cycle_closed, (a, b, order)
        assert fn_nonvanishing(a, b, order).cycle_closed, (a, b, order)
        assert reference_nonvanishing(a, b, order) == (None, True)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_gf_kernel_matches_the_reference(p):
    # the census keys read the int kernel as it is and fn_nonvanishing boxes
    # it; both must give the set-based reference's outcome for every (a, b)
    field = PrimeField(p)
    for bound in sorted({1, p, p + 1, p * p, 50}):
        census_scan = _fn_scans(field, bound)
        for a in range(p):
            for b in range(p):
                zero_index, closed = reference_nonvanishing(field.scalar(a), field.scalar(b), bound)
                outcome = "zero" if zero_index is not None else "exact" if closed else "bounded"
                assert census_scan(a, b) == outcome, (a, b, bound)
                report = fn_nonvanishing(field.scalar(a), field.scalar(b), bound)
                assert (report.zero_index, report.cycle_closed) == (zero_index, closed), (a, b, bound)
                if zero_index is not None:
                    e = reference_orbit(field.scalar(a), field.scalar(b), zero_index)[-1][0]
                    assert fn_scan_mod_p(p, a, b, bound) == ("zero", zero_index, e.payload)
                    assert report.zero_e == e


@pytest.mark.parametrize("field, a, b, period", [
    (QQ, "2", "-1", 4),  # the state map has trace b + 1 = 0 and determinant a + b = 1
    (QQ, "3", "-2", 3),  # trace -1, determinant 1
    (QuadExtField(QQ, 2), "2-sqrt(2)", "sqrt(2)-1", 8),  # trace sqrt(2), determinant 1
], ids=["Q-order-4", "Q-order-3", "Qsqrt2-order-8"])
def test_return_to_one_one_certifies_over_every_field(field, a, b, period):
    # an orbit that revisits (1, 1) is periodic from n = 0, whatever the field
    a, b = field.scalar(a), field.scalar(b)
    assert reference_orbit(a, b, period)[-1][:2] == (field.one(), field.one())
    assert reference_nonvanishing(a, b, period) == (None, True)
    before = fn_nonvanishing(a, b, period - 1)
    assert before.all_nonzero and not before.cycle_closed
    report = fn_nonvanishing(a, b, period)
    assert report.all_nonzero and report.cycle_closed
    assert repr(report) == "AllNonzero(certified for all n)"


def test_scan_keeps_one_state():
    # (4403, 18651) over GF(32003) has no zero and no return to (1, 1) within
    # 200,000 steps; a record of visited states would hold all of them
    field = PrimeField(32003)
    a, b = field.scalar(4403), field.scalar(18651)
    tracemalloc.start()
    try:
        report = fn_nonvanishing(a, b, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_nonzero and not report.cycle_closed
    assert peak < 64 * 1024, peak
