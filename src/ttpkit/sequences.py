"""The coupled polynomial recurrences (e_n, f_n, g_n, h_n) at a point.

Starting from e_0 = f_0 = 1,
    e_n = u e_{n-1} + f_{n-1},    f_n = -t e_{n-1} + f_{n-1},
    g_n = (1-u) e_n - f_n,        h_n = -t e_n,
evaluated exactly at (t, u) = (a, b).  The nonvanishing of every f_n is
the decision kernel for the two-generator twisted tensor product test.
The state map (e, f) -> (b e + f, f - a e) is linear with determinant
a + b.  Over a finite field the orbit of (1, 1) therefore returns to
(1, 1) before it repeats any other state: if a + b != 0 the map is a
bijection of a finite set, so the orbit is purely periodic (Lidl and
Niederreiter, Finite Fields, ch. 8); if a + b = 0 then
(e_1, f_1) = (b + 1)(1, 1), so (1, 1) is an eigenvector (and b = -1
gives f_1 = 0).  A scan that sees (1, 1) again has seen every f_n, and
certifies its verdict for all n with no record of past states.
The orbit steps raw field payloads (see scalars), and fn_nonvanishing
steps GF(p) in plain ints; only the rows that efgh and efgh_table
return, and the e_n at a zero that fn_nonvanishing reports, are boxed as
Scalars.
"""

from __future__ import annotations

from itertools import count, islice
from typing import NamedTuple

from .scalars import PrimeField, Scalar


class SequenceQuad(NamedTuple):
    n: int
    e: Scalar
    f: Scalar
    g: Scalar
    h: Scalar


def _orbit(field, a, b):
    """(n, e_n, f_n) for n = 0, 1, 2, ...: the payload state (e, f) under the fixed linear map at payloads (a, b)."""
    add, mul = field._add, field._mul
    na = field._neg(a)
    e = f = field.one().payload
    for n in count():
        yield n, e, f
        e, f = add(mul(b, e), f), add(mul(na, e), f)


def _payloads(a, b):
    """(field, a, b) with a and b as payloads of a's field; b may be an int."""
    field = a.field
    return field, a.payload, field.scalar(b).payload


def _quad(field, a, b, n, e, f):
    """The SequenceQuad of the payload state (e_n, f_n); g_n and h_n are made on payloads too."""
    add, mul, neg = field._add, field._mul, field._neg
    g = add(mul(add(field.one().payload, neg(b)), e), neg(f))
    h = mul(neg(a), e)
    return SequenceQuad(n, Scalar(field, e), Scalar(field, f), Scalar(field, g), Scalar(field, h))


def efgh(a, b, n):
    """Exact (e_n, f_n, g_n, h_n) at (a, b); n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    field, a, b = _payloads(a, b)
    return _quad(field, a, b, *next(islice(_orbit(field, a, b), n, None)))


def efgh_table(a, b, n):
    """SequenceQuad rows for indices 0..n (single pass)."""
    field, a, b = _payloads(a, b)
    return [_quad(field, a, b, *state) for state in islice(_orbit(field, a, b), n + 1)]


class NonvanishingReport(NamedTuple):
    bound: int
    verdict: str  # "all_nonzero" or "zero_at"
    zero_index: int | None = None
    cycle_closed: bool = False  # the scan became unconditional: the (e, f)
    # orbit returned to (1, 1) (finite field: the map is a bijection when
    # a + b != 0, and (1, 1) an eigenvector when a + b = 0) or the
    # recursion degenerated (a = 0), so the verdict holds for every n,
    # not just n <= bound
    zero_e: Scalar | None = None  # e_n at the zero index n, where g_n = (1 - b) e_n

    @property
    def all_nonzero(self):
        return self.verdict == "all_nonzero"

    def __repr__(self):
        if self.verdict == "zero_at":
            return f"ZeroAt({self.zero_index})"
        tag = "certified for all n" if self.cycle_closed else f"up to N={self.bound}"
        return f"AllNonzero({tag})"


def fn_nonvanishing(a, b, bound):
    """Scan f_n(a, b) for n = 1..bound; report the first zero if any.

    The state (e_n, f_n) evolves by a fixed linear map of determinant
    a + b, so over a finite field the orbit of (e_0, f_0) = (1, 1) comes
    back to (1, 1) before it repeats any other state: the map is a
    bijection when a + b != 0, and (1, 1) is an eigenvector when
    a + b = 0.  The first return closes the cycle and upgrades the verdict
    to a certificate for all n; the scan keeps only the current state.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if a.is_zero():
        # f_n = f_{n-1} when the first argument vanishes, so f_n = 1 for all n
        return NonvanishingReport(bound, "all_nonzero", cycle_closed=True)
    field, a, b = _payloads(a, b)
    if isinstance(field, PrimeField):
        p = field.p
        e = f = 1
        for n in range(1, bound + 1):
            e, f = (b * e + f) % p, (f - a * e) % p
            if not f:
                return NonvanishingReport(bound, "zero_at", n, zero_e=Scalar(field, e))
            if e == 1 and f == 1:
                return NonvanishingReport(bound, "all_nonzero", cycle_closed=True)
        return NonvanishingReport(bound, "all_nonzero")
    # Q, Q(sqrt m) and GF(p)(sqrt m) step through the payload hooks; over Q
    # the orbit need not return to (1, 1), and its verdict stays bounded
    add, mul, is_zero = field._add, field._mul, field._is_zero
    na = field._neg(a)
    one = e = f = field.one().payload
    finite = field.characteristic() != 0
    for n in range(1, bound + 1):
        e, f = add(mul(b, e), f), add(mul(na, e), f)
        if is_zero(f):
            return NonvanishingReport(bound, "zero_at", n, zero_e=Scalar(field, e))
        if finite and e == one and f == one:
            return NonvanishingReport(bound, "all_nonzero", cycle_closed=True)
    return NonvanishingReport(bound, "all_nonzero")
