"""Exact field arithmetic: rationals, prime fields, quadratic extensions.

Every computation in the package runs over one of these fields; there is
no floating point anywhere.  Square roots that do not exist in the ambient
field are adjoined on demand as a single quadratic extension.

Payloads are the raw values behind a Scalar.  A GF(p) payload is an int in
[0, p); a quadratic-extension payload is a pair (u, v) of base payloads.  A
Q payload is an int, or a Fraction whose denominator is above 1: the
RationalField hooks return an integral value as a plain int, so integral
computations over Q never pay for Fraction arithmetic.  An int and the
equal Fraction compare, hash and print the same, and an int has
.numerator and .denominator, so readers may take either.

Bulk data holds payloads, never Scalars.  The rows of ScalarMatrix and
EchelonSpan, the terms of an NCPoly and the entries of the rewrite
letter multiplication maps are all sparse payload rows, {key: payload}
dicts that store no zero, and a field's _add_multiple is the one loop
that accumulates into them: the base class runs it on the hooks, and the
rational and prime fields inline their arithmetic.  A Scalar is built
only when a single value is read out.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldError(Exception):
    pass


class DivisionByZero(FieldError):
    pass


class FieldMismatch(FieldError):
    pass


class NoRoot(FieldError):
    pass


class Unsupported(FieldError):
    pass


class CharTwo(FieldError):
    pass


class SquareRadicand(FieldError):
    """Raised when a quadratic extension is requested for a square radicand."""

    def __init__(self, msg, root):
        super().__init__(msg)
        self.root = root


class NestedExtension(FieldError):
    pass


class RadicandTooLarge(FieldError):
    """Raised when trial division does not decide the squarefree part of a rational radicand."""


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime; FieldError at or above _PRIME_BOUND, where no answer is certain."""
    if n >= _PRIME_BOUND:
        raise FieldError(f"primality of {n} is not decided at or above {_PRIME_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a, p):
    """A square root of a mod p, or None.  Tonelli-Shanks for odd p."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class Field:
    """Base class; subclasses implement exact arithmetic on payloads."""

    def scalar(self, value):
        """Coerce an int, Fraction, Scalar or literal string into this field."""
        if isinstance(value, Scalar):
            if value.field == self:
                return value
            raise FieldMismatch(f"cannot coerce element of {value.field} into {self}")
        if isinstance(value, str):
            return parse_scalar(self, value)
        return Scalar(self, self._coerce(value))

    def zero(self):
        return Scalar(self, self._coerce(0))

    def one(self):
        return Scalar(self, self._coerce(1))

    # subclass hooks on raw payloads
    def _coerce(self, value):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a):
        raise NotImplementedError

    def _add_multiple(self, out, c, row):
        """out += c * row in place, for sparse payload rows and a nonzero c; zero entries are dropped."""
        add, mul, is0 = self._add, self._mul, self._is_zero
        for j, y in row.items():
            prev = out.get(j)
            if prev is None:
                out[j] = mul(c, y)
            else:
                s = add(prev, mul(c, y))
                if is0(s):
                    del out[j]
                else:
                    out[j] = s

    def _str(self, a):
        raise NotImplementedError

    def characteristic(self):
        raise NotImplementedError

    def sqrt(self, s):
        """A square root of s in this field, or None."""
        raise NotImplementedError


class RationalField(Field):
    # Every hook keeps the payload invariant: an int, or a Fraction with
    # denominator above 1.  int op int is an int already; only a result
    # that is a Fraction can need demoting.

    def _coerce(self, value):
        if isinstance(value, int):
            return int(value)  # a bool becomes 0 or 1
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        raise FieldMismatch(f"cannot coerce {value!r} into Q")

    def _add(self, a, b):
        s = a + b
        if s.__class__ is int or s.denominator != 1:
            return s
        return s.numerator

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        s = a * b
        if s.__class__ is int or s.denominator != 1:
            return s
        return s.numerator

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("1/0 in Q")
        n, d = a.numerator, a.denominator
        if n == 1 or n == -1:
            return n * d
        # 1/int would be a float
        return Fraction(d, n)

    def _is_zero(self, a):
        return a == 0

    def _add_multiple(self, out, c, row):
        # c * y is nonzero, so only an entry already present can cancel
        get = out.get
        for j, y in row.items():
            prev = get(j)
            s = c * y if prev is None else prev + c * y
            if s.__class__ is not int and s.denominator == 1:
                s = s.numerator
            if s:
                out[j] = s
            else:
                del out[j]

    def _str(self, a):
        return str(a)

    def characteristic(self):
        return 0

    def sqrt(self, s):
        a = s.payload
        if a < 0:
            return None
        rn = math.isqrt(a.numerator)
        rd = math.isqrt(a.denominator)
        if rn * rn == a.numerator and rd * rd == a.denominator:
            return Scalar(self, self._coerce(Fraction(rn, rd)))
        return None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    def _coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            num = value.numerator % self.p
            den = value.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator divisible by {self.p}")
            return num * pow(den, self.p - 2, self.p) % self.p
        raise FieldMismatch(f"cannot coerce {value!r} into GF({self.p})")

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero(f"1/0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def _is_zero(self, a):
        return a == 0

    def _add_multiple(self, out, c, row):
        # c * y is nonzero mod p, so only an entry already present can cancel
        p, get = self.p, out.get
        for j, y in row.items():
            s = (get(j, 0) + c * y) % p
            if s:
                out[j] = s
            else:
                del out[j]

    def _str(self, a):
        return str(a)

    def characteristic(self):
        return self.p

    def sqrt(self, s):
        r = _sqrt_mod(s.payload, self.p)
        return None if r is None else Scalar(self, r)

    def elements(self):
        return [Scalar(self, i) for i in range(self.p)]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class QuadExtField(Field):
    """base(sqrt(m)) with m a non-square of the base field; payload (u, v)."""

    def __init__(self, base, m):
        if isinstance(base, QuadExtField):
            raise NestedExtension("only one level of quadratic extension is supported")
        m = base.scalar(m)
        if m.is_zero():
            raise FieldError("radicand must be nonzero")
        root = base.sqrt(m)
        if root is not None:
            raise SquareRadicand(f"{m} is a square in {base}: sqrt = {root}", root)
        self.base = base
        self.m = m

    def embed(self, s):
        """Lift a base-field Scalar into this extension."""
        if s.field == self:
            return s
        if s.field != self.base:
            raise FieldMismatch(f"cannot embed element of {s.field} into {self}")
        return Scalar(self, self._embed(s.payload))

    def _embed(self, a):
        """The payload of this extension that lifts the base-field payload a."""
        return (a, self.base._coerce(0))

    def root(self):
        """The adjoined square root as a Scalar."""
        return Scalar(self, (self.base._coerce(0), self.base._coerce(1)))

    def parts(self, s):
        """(u, v) components of s = u + v*sqrt(m) as base-field Scalars."""
        u, v = s.payload
        return Scalar(self.base, u), Scalar(self.base, v)

    def _coerce(self, value):
        return (self.base._coerce(value), self.base._coerce(0))

    def _add(self, a, b):
        return (self.base._add(a[0], b[0]), self.base._add(a[1], b[1]))

    def _neg(self, a):
        return (self.base._neg(a[0]), self.base._neg(a[1]))

    def _mul(self, a, b):
        u1, v1 = a
        u2, v2 = b
        bb = self.base
        m = self.m.payload
        u = bb._add(bb._mul(u1, u2), bb._mul(m, bb._mul(v1, v2)))
        v = bb._add(bb._mul(u1, v2), bb._mul(v1, u2))
        return (u, v)

    def _inv(self, a):
        u, v = a
        bb = self.base
        # norm u^2 - m v^2 is nonzero since m is not a square
        norm = bb._add(bb._mul(u, u), bb._neg(bb._mul(self.m.payload, bb._mul(v, v))))
        if bb._is_zero(norm):
            raise DivisionByZero(f"1/0 in {self}")
        ninv = bb._inv(norm)
        return (bb._mul(u, ninv), bb._neg(bb._mul(v, ninv)))

    def _is_zero(self, a):
        return self.base._is_zero(a[0]) and self.base._is_zero(a[1])

    def _str(self, a):
        u, v = a
        bb = self.base
        rad = f"sqrt({bb._str(self.m.payload)})"
        if bb._is_zero(v):
            return bb._str(u)
        if bb._is_zero(bb._add(v, bb._neg(bb._coerce(1)))):
            vs = rad
        elif bb._is_zero(bb._add(v, bb._coerce(1))):
            vs = f"-{rad}"
        else:
            vs = f"{bb._str(v)}*{rad}"
        if bb._is_zero(u):
            return vs
        if vs.startswith("-"):
            return f"{bb._str(u)}{vs}"
        return f"{bb._str(u)}+{vs}"

    def characteristic(self):
        return self.base.characteristic()

    def sqrt(self, s):
        # solve (a + b*sqrt(m))^2 = u + v*sqrt(m) over the base field
        u, v = self.parts(s)
        bb = self.base
        if v.is_zero():
            r = bb.sqrt(u)
            if r is not None:
                return self.embed(r)
            r = bb.sqrt(u / self.m)
            if r is not None:
                return self.embed(r) * self.root()
            return None
        if self.characteristic() == 2:
            return None
        # a^2 = (u +/- sqrt(u^2 - m v^2))/2, b = v/(2a)
        disc = u * u - self.m * v * v
        w = bb.sqrt(disc)
        if w is None:
            return None
        two = bb.scalar(2)
        for sign in (w, -w):
            asq = (u + sign) / two
            a = bb.sqrt(asq)
            if a is not None and not a.is_zero():
                b = v / (two * a)
                return self.embed(a) + self.embed(b) * self.root()
        return None

    def __eq__(self, other):
        return (
            isinstance(other, QuadExtField)
            and other.base == self.base
            and other.m.payload == self.m.payload
        )

    def __hash__(self):
        return hash(("ext", hash(self.base), str(self.m)))

    def __repr__(self):
        return f"{self.base}(sqrt({self.m}))"


QQ = RationalField()


class Scalar:
    """Immutable exact field element in canonical form."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        self.field = field
        self.payload = payload

    def _other(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"mixed fields {self.field} and {other.field}")
            return other.payload
        return self.field._coerce(other)

    def __add__(self, other):
        return Scalar(self.field, self.field._add(self.payload, self._other(other)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.payload))

    def __sub__(self, other):
        return Scalar(self.field, self.field._add(self.payload, self.field._neg(self._other(other))))

    def __rsub__(self, other):
        return Scalar(self.field, self.field._add(self.field._neg(self.payload), self._other(other)))

    def __mul__(self, other):
        return Scalar(self.field, self.field._mul(self.payload, self._other(other)))

    __rmul__ = __mul__

    def inv(self):
        return Scalar(self.field, self.field._inv(self.payload))

    def __truediv__(self, other):
        return Scalar(self.field, self.field._mul(self.payload, self.field._inv(self._other(other))))

    def __rtruediv__(self, other):
        return Scalar(self.field, self.field._mul(self._other(other), self.field._inv(self.payload)))

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self):
        return self.field._is_zero(self.payload)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.payload == other.payload
        try:
            return self.payload == self.field._coerce(other)
        except FieldError:
            return NotImplemented

    def __hash__(self):
        return hash((str(self.field), str(self.payload)))

    def sort_key(self):
        """Deterministic total order on canonical encodings (not numeric)."""
        s = str(self)
        return (len(s), s)

    def __repr__(self):
        return self.field._str(self.payload)


def parse_scalar(field, text):
    """Parse a scalar literal: integers, fractions p/q, and sqrt(m) terms."""
    text = text.strip().replace(" ", "")
    if not text:
        raise FieldError("empty scalar literal")

    def parse_simple(tok, fld):
        if "/" in tok:
            num, den = tok.split("/", 1)
            return fld.scalar(int(num)) / fld.scalar(int(den))
        return fld.scalar(int(tok))

    # split into +/- separated terms, keeping signs
    terms = []
    i, start = 0, 0
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and i > start and depth == 0 and text[i - 1] not in "+-(*/":
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])

    total = field.zero()
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if "sqrt(" in term:
            if not isinstance(field, QuadExtField):
                raise FieldError(f"sqrt literal {term!r} needs a quadratic extension field")
            pre, rest = term.split("sqrt(", 1)
            if not rest.endswith(")"):
                raise FieldError(f"malformed sqrt term {term!r}")
            m = parse_simple(rest[:-1], field.base)
            if m != field.m:
                raise FieldError(f"sqrt({m}) does not live in {field}")
            coeff = field.base.one() if pre in ("", "*") else parse_simple(pre.rstrip("*"), field.base)
            value = field.embed(coeff) * field.root()
        else:
            value = parse_simple(term, field)
        total = total + (value if sign == 1 else -value)
    return total


class QuadraticRoots:
    """Roots of p2*q^2 + p1*q + p0, possibly in a quadratic extension."""

    __slots__ = ("field", "roots", "multiplicities", "extended")

    def __init__(self, field, roots, multiplicities, extended):
        self.field = field
        self.roots = roots
        self.multiplicities = multiplicities
        self.extended = extended

    def __repr__(self):
        pairs = ", ".join(f"{r} (x{m})" for r, m in zip(self.roots, self.multiplicities))
        return f"roots over {self.field}: {pairs}"


_TRIAL_BOUND = 10**6


def _squarefree_split(n):
    """(sq, m) with n = sq^2 * m and m squarefree, for an int n > 0.

    Trial division by every k below _TRIAL_BOUND leaves a cofactor c with
    no prime factor below the bound.  Below the bound squared, c is 1 or a
    prime; below its cube, c is p, p^2 or pq, and isqrt tells p^2 apart.
    That decides every n below 10^18; a larger cofactor raises
    RadicandTooLarge.
    """
    sq = m = 1
    c = n
    for k in range(2, _TRIAL_BOUND):
        if k * k > c:
            break
        if c % k:
            continue
        e = 0
        while c % k == 0:
            c //= k
            e += 1
        sq *= k ** (e // 2)
        m *= k ** (e % 2)
    if c >= _TRIAL_BOUND**3:
        raise RadicandTooLarge(
            f"the squarefree part of the radicand {n} is not decided: trial division "
            f"below {_TRIAL_BOUND} leaves a cofactor of {len(str(c))} digits"
        )
    r = math.isqrt(c)
    return (sq * r, m) if r * r == c else (sq, m * c)


def adjoin_sqrt(s):
    """(field2, root) with root * root == s viewed in field2.

    field2 is s.field when s is already a square there; otherwise a fresh
    quadratic extension (with squarefree radicand over the rationals).
    """
    field = s.field
    r = field.sqrt(s)
    if r is not None:
        return field, r
    if isinstance(field, RationalField):
        d = s.payload
        n = d.numerator * d.denominator  # sqrt(n/den) = sqrt(n*den)/den
        sq, m = _squarefree_split(abs(n))
        ext = QuadExtField(field, m if n > 0 else -m)
        return ext, ext.embed(field.scalar(Fraction(sq, d.denominator))) * ext.root()
    if isinstance(field, PrimeField):
        ext = QuadExtField(field, s.payload)
        return ext, ext.root()
    raise NestedExtension("square root needs a second extension level")


def solve_quadratic(p2, p1, p0):
    """Exact roots of p2*q^2 + p1*q + p0 = 0, extending the field if needed.

    Returns a QuadraticRoots record whose field is either the input field
    or a fresh quadratic extension by sqrt(discriminant).
    """
    field = p2.field
    if p1.field != field or p0.field != field:
        raise FieldMismatch("coefficients live in different fields")
    if p2.is_zero() and p1.is_zero() and p0.is_zero():
        raise ValueError("identically zero quadratic")
    if p2.is_zero():
        if p1.is_zero():
            raise NoRoot("constant nonzero polynomial has no roots")
        return QuadraticRoots(field, [-p0 / p1], [1], False)

    if field.characteristic() == 2:
        # no radical extensions exist in characteristic 2 (squaring is bijective)
        if p1.is_zero():
            r = field.sqrt(p0 / p2)
            if r is None:
                raise Unsupported("inseparable quadratic with no root in the field")
            return QuadraticRoots(field, [r], [2], False)
        roots = [x for x in field.elements() if (p2 * x * x + p1 * x + p0).is_zero()]
        if len(roots) == 2:
            return QuadraticRoots(field, roots, [1, 1], False)
        raise Unsupported(
            "separable quadratic splits only in GF(p^2), which is not an "
            "adjoin-a-square-root extension in characteristic 2"
        )

    # (-p1 +/- sqrt(disc)) / (2 p2), on payloads; only the roots are boxed
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    a2, a1, a0 = p2.payload, p1.payload, p0.payload
    disc = add(mul(a1, a1), neg(mul(field._coerce(4), mul(a2, a0))))
    if field._is_zero(disc):
        return QuadraticRoots(field, [Scalar(field, mul(neg(a1), inv(add(a2, a2))))], [2], False)
    ext, w = adjoin_sqrt(Scalar(field, disc))
    extended = ext != field
    if extended:
        a2, a1 = ext._embed(a2), ext._embed(a1)
        add, mul, neg, inv = ext._add, ext._mul, ext._neg, ext._inv
    w, d = w.payload, inv(add(a2, a2))
    roots = [Scalar(ext, mul(add(neg(a1), w), d)), Scalar(ext, mul(add(neg(a1), neg(w)), d))]
    return QuadraticRoots(ext, roots, [1, 1], extended)


class ScalarMatrix:
    """Immutable matrix over a single field, stored as sparse payload rows.

    rows[i] maps the column of each nonzero entry of row i to its payload;
    zeros are never stored.  Reads box entries into Scalars.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, entries):
        """Matrix of the given dense rows of Scalars, ints or literals."""
        ncols = len(entries[0]) if entries else 0
        is0 = field._is_zero
        rows = []
        for row in entries:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
            sparse = {}
            for j, x in enumerate(row):
                a = field.scalar(x).payload
                if not is0(a):
                    sparse[j] = a
            rows.append(sparse)
        self.field, self.rows, self.nrows, self.ncols = field, rows, len(rows), ncols

    @staticmethod
    def from_sparse(field, rows, ncols):
        """Matrix whose row i is the payload dict rows[i] (no zeros), taken as its own."""
        m = ScalarMatrix.__new__(ScalarMatrix)
        m.field, m.rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

    @staticmethod
    def identity(field, n):
        one = field._coerce(1)
        return ScalarMatrix.from_sparse(field, [{i: one} for i in range(n)], n)

    @staticmethod
    def zero(field, nrows, ncols):
        return ScalarMatrix.from_sparse(field, [{} for _ in range(nrows)], ncols)

    def _box(self, a):
        field = self.field
        return Scalar(field, field._coerce(0) if a is None else a)

    def __getitem__(self, ij):
        return self._box(self.rows[ij[0]].get(ij[1]))

    def row(self, i):
        return [self._box(self.rows[i].get(j)) for j in range(self.ncols)]

    def column(self, j):
        return [self._box(row.get(j)) for row in self.rows]

    def __mul__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        if other.field != self.field:
            raise FieldMismatch(f"mixed fields {self.field} and {other.field}")
        add, rows = self.field._add_multiple, []
        for row in self.rows:
            acc = {}
            for k, a in row.items():
                add(acc, a, other.rows[k])
            rows.append(acc)
        return ScalarMatrix.from_sparse(self.field, rows, other.ncols)

    def __eq__(self, other):
        return isinstance(other, ScalarMatrix) and self.field == other.field and (
            (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)
        )

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                cols[j][i] = a
        return ScalarMatrix.from_sparse(self.field, cols, self.nrows)

    def _det2(self):
        """(payload of ad - bc, a, b, c, d) for the 2x2 matrix [[a, b], [c, d]]."""
        if (self.nrows, self.ncols) != (2, 2):
            raise ValueError(f"needs a 2x2 matrix, got {self.nrows}x{self.ncols}")
        field = self.field
        zero = field._coerce(0)
        (a, b), (c, d) = ((row.get(0, zero), row.get(1, zero)) for row in self.rows)
        return field._add(field._mul(a, d), field._neg(field._mul(b, c))), a, b, c, d

    def det(self):
        """ad - bc; every caller needs the 2x2 determinant only."""
        return Scalar(self.field, self._det2()[0])

    def inverse(self):
        """The inverse of a 2x2 matrix, its adjugate over det; DivisionByZero if singular."""
        field = self.field
        det, a, b, c, d = self._det2()
        di, mul, neg, is0 = field._inv(det), field._mul, field._neg, field._is_zero
        rows = [{j: mul(x, di) for j, x in enumerate(r) if not is0(x)} for r in ((d, neg(b)), (neg(c), a))]
        return ScalarMatrix.from_sparse(field, rows, 2)

    def _echelon(self):
        span = EchelonSpan(self.field)
        for row in self.rows:
            span._insert(row)
        return span

    def kernel_rows(self):
        """(free columns, kernel basis as sparse payload rows), one row per free column.

        Free column j gives e_j - sum_r rref[r][j] e_{pivot r}, read off the
        reduced row echelon form; that form is unique, so the basis is too.
        The basis is the identity on the free columns, and every pivot
        holding j lies below j, so each row's keys come in increasing order.
        """
        span = self._echelon()
        free = [j for j in range(self.ncols) if j not in span.rows]
        rows = {j: {} for j in free}
        neg = self.field._neg
        for p in sorted(span.rows):
            for j, y in span.rows[p].items():
                rows[j][p] = neg(y)
        one = self.field._coerce(1)
        for j, row in rows.items():
            row[j] = one
        return free, list(rows.values())

    def rank_kernel(self):
        """(rank, kernel basis as matrix columns); rank + nullity = ncols."""
        free, rows = self.kernel_rows()
        return self.ncols - len(free), ScalarMatrix.from_sparse(self.field, rows, self.ncols).transpose()

    def rank(self):
        return self._echelon().rank

    def solve(self, rhs):
        """One solution x of self * x = rhs (rhs a list of Scalars), or None."""
        field = self.field
        n = self.ncols
        span = EchelonSpan(field)
        for row, v in zip(self.rows, rhs):
            b = field.scalar(v).payload
            span._insert(row if field._is_zero(b) else {**row, n: b})
        if n in span.rows:
            return None
        # pivot p solves for x_p; every free unknown is set to zero
        return [self._box(span.rows[p].get(n) if p in span.rows else None) for p in range(n)]

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.nrows))
        return f"[{body}]"


class EchelonSpan:
    """Mutable row span in reduced row echelon form, over sparse payload rows.

    A row is a dict {column: payload} of its nonzero entries; its pivot is
    its smallest column.  Every stored row is zero at every other row's
    pivot, so reducing a vector touches only the rows whose pivots it
    holds.  The package's one elimination loop: incremental rank tracking,
    and every rank, kernel and solve of ScalarMatrix.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field):
        self.field = field
        # pivot column -> the rest of its row; the pivot entry, 1, is not stored
        self.rows = {}

    def _reduce(self, vec):
        """A new sparse row: vec minus its part along the span."""
        field, rows = self.field, self.rows
        add, neg, out = field._add_multiple, field._neg, dict(vec)
        for p in [j for j in vec if j in rows]:
            add(out, neg(out.pop(p)), rows[p])
        return out

    def insert(self, vec):
        """Add vec, a sparse payload row without zeros (left unchanged); True if the rank grew."""
        return self._insert(vec)

    def _insert(self, vec):
        # _echelon and solve feed whole matrices through here, so that
        # perfbench, which traces insert(), counts incremental inserts only
        res = self._reduce(vec)
        if not res:
            return False
        field = self.field
        p = min(res)
        add, neg, scaled = field._add_multiple, field._neg, {}
        add(scaled, field._inv(res.pop(p)), res)
        for row in self.rows.values():
            c = row.pop(p, None)
            if c is not None:
                add(row, neg(c), scaled)
        self.rows[p] = scaled
        return True

    def contains(self, vec):
        return not self._reduce(vec)

    @property
    def rank(self):
        return len(self.rows)
