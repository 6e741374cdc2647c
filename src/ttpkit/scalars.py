"""Exact field arithmetic: rationals, prime fields, quadratic extensions.

Every computation in the package runs over one of these fields; there is
no floating point anywhere.  Square roots that do not exist in the ambient
field are adjoined on demand as a single quadratic extension.
"""

from __future__ import annotations

import bisect
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


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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

    kind = "abstract"

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
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

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

    def _str(self, a):
        raise NotImplementedError

    def characteristic(self):
        raise NotImplementedError

    def sqrt(self, s):
        """A square root of s in this field, or None."""
        raise NotImplementedError

    def __ne__(self, other):
        return not self.__eq__(other)


class RationalField(Field):
    kind = "rationals"

    def _coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise FieldMismatch(f"cannot coerce {value!r} into Q")

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("1/0 in Q")
        return 1 / a

    def _is_zero(self, a):
        return a == 0

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
            return Scalar(self, Fraction(rn, rd))
        return None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    kind = "prime"

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

    kind = "quadext"

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
        return Scalar(self, (s.payload, self.base._coerce(0)))

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
        sq = 1
        k = 2
        npos = abs(n)
        while k * k <= npos:
            while npos % (k * k) == 0:
                npos //= k * k
                sq *= k
            k += 1
        m = npos if n > 0 else -npos
        ext = QuadExtField(field, m)
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

    disc = p1 * p1 - 4 * p2 * p0
    two_a = 2 * p2
    if disc.is_zero():
        return QuadraticRoots(field, [-p1 / two_a], [2], False)
    ext, w = adjoin_sqrt(disc)
    if ext == field:
        return QuadraticRoots(field, [(-p1 + w) / two_a, (-p1 - w) / two_a], [1, 1], False)
    p1e, p2e = ext.embed(p1), ext.embed(p2)
    r1 = (-p1e + w) / (2 * p2e)
    r2 = (-p1e - w) / (2 * p2e)
    return QuadraticRoots(ext, [r1, r2], [1, 1], True)


class ScalarMatrix:
    """Immutable dense matrix over a single field."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, entries):
        self.field = field
        rows = tuple(tuple(field.scalar(x) for x in row) for row in entries)
        self.entries = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    @staticmethod
    def identity(field, n):
        one, zero = field.one(), field.zero()
        return ScalarMatrix(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero()
        return ScalarMatrix(field, [[z] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return list(self.entries[i])

    def column(self, j):
        return [self.entries[i][j] for i in range(self.nrows)]

    def __mul__(self, other):
        if isinstance(other, ScalarMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            out = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = self.field.zero()
                    for k in range(self.ncols):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return ScalarMatrix(self.field, out)
        s = self.field.scalar(other)
        return ScalarMatrix(self.field, [[e * s for e in row] for row in self.entries])

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return ScalarMatrix(
            self.field,
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.ncols)]
                for i in range(self.nrows)
            ],
        )

    def __sub__(self, other):
        return self + other * (-1)

    def __eq__(self, other):
        return (
            isinstance(other, ScalarMatrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, str(self)))

    def transpose(self):
        return ScalarMatrix(
            self.field,
            [[self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def det(self):
        """ad - bc; every caller needs the 2x2 determinant only."""
        if (self.nrows, self.ncols) != (2, 2):
            raise ValueError(f"det needs a 2x2 matrix, got {self.nrows}x{self.ncols}")
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def rank_kernel(self):
        """(rank, kernel basis as matrix columns); rank + nullity = ncols.

        Free column j gives e_j - sum_r rref[r][j] e_{pivot r}, read off the
        reduced row echelon form; that form is unique, so the basis is too.
        """
        field = self.field
        span = EchelonSpan(field, self.ncols)
        for row in self.entries:
            span._insert_payloads([e.payload for e in row])
        zero, one = field._coerce(0), field._coerce(1)
        pivots = set(span.pivots)
        basis = []
        for j in range(self.ncols):
            if j in pivots:
                continue
            vec = [zero] * self.ncols
            vec[j] = one
            for row, pc in zip(span.rows, span.pivots):
                vec[pc] = field._neg(row[j])
            basis.append(vec)
        grid = [[Scalar(field, vec[i]) for vec in basis] for i in range(self.ncols)]
        return span.rank, ScalarMatrix(field, grid)

    def rank(self):
        return self.rank_kernel()[0]

    def solve(self, rhs):
        """One solution x of self * x = rhs (rhs a list of Scalars), or None."""
        field = self.field
        span = EchelonSpan(field, self.ncols + 1)
        for row, v in zip(self.entries, rhs):
            span._insert_payloads([e.payload for e in row] + [field.scalar(v).payload])
        if span.pivots and span.pivots[-1] == self.ncols:
            return None
        x = [field.zero()] * self.ncols
        for row, pc in zip(span.rows, span.pivots):
            x[pc] = Scalar(field, row[-1])
        return x

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"[{body}]"


class EchelonSpan:
    """Mutable row span in reduced row echelon form, over payload rows.

    The package's one elimination loop: incremental rank tracking, and
    every rank, kernel and solve of ScalarMatrix.
    """

    __slots__ = ("field", "width", "rows", "pivots")

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []  # payload rows, fully reduced
        self.pivots = []

    def _payloads(self, vec):
        return [x.payload if isinstance(x, Scalar) else self.field._coerce(x) for x in vec]

    def _reduce_payloads(self, vec):
        field = self.field
        add, mul, neg, is0 = field._add, field._mul, field._neg, field._is_zero
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if not is0(c):
                nc = neg(c)
                for j in range(p, self.width):
                    y = row[j]
                    if not is0(y):
                        vec[j] = add(vec[j], mul(nc, y))
        return vec

    def insert(self, vec):
        """Add vec to the span; returns True if the rank grew."""
        return self._insert_payloads(self._payloads(vec))

    def _insert_payloads(self, vec):
        """insert() on a payload row, which becomes the span's own."""
        field = self.field
        add, mul, neg, inv, is0 = field._add, field._mul, field._neg, field._inv, field._is_zero
        res = self._reduce_payloads(vec)
        p = next((j for j in range(self.width) if not is0(res[j])), None)
        if p is None:
            return False
        pinv = inv(res[p])
        for j in range(p, self.width):
            if not is0(res[j]):
                res[j] = mul(res[j], pinv)
        for row in self.rows:
            c = row[p]
            if not is0(c):
                nc = neg(c)
                for j in range(p, self.width):
                    y = res[j]
                    if not is0(y):
                        row[j] = add(row[j], mul(nc, y))
        at = bisect.bisect(self.pivots, p)
        self.rows.insert(at, res)
        self.pivots.insert(at, p)
        return True

    def contains(self, vec):
        res = self._reduce_payloads(self._payloads(vec))
        return all(self.field._is_zero(x) for x in res)

    @property
    def rank(self):
        return len(self.rows)
