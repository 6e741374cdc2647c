"""Noncommutative polynomials over a finite ordered alphabet.

Words are tuples of letter indices; the listed order of the alphabet is
the letter order (first letter smallest).  The one term order is
Alphabet.sort_key: (weighted) degree first, then left-lexicographic, with
optional letter weights so that a generator may sit in a degree other
than 1.

A polynomial's terms map each word to a raw field payload (see scalars),
never to zero.  Sums and products update them in place through the
field's sparse-row kernel, _add_multiple; only the readers coeff,
leading_term and sorted_terms box a coefficient into a Scalar.
"""

from __future__ import annotations

from .scalars import FieldMismatch, Scalar


class AlphabetMismatch(Exception):
    pass


class ZeroPolynomial(Exception):
    pass


# The most letters one power x^n may repeat: x^30000 is a relation someone
# may mean, x^99999999999 only a way to run out of memory.
MAX_POWER = 100_000


class Alphabet:
    """Ordered letters, e.g. Alphabet(["y", "x", "z"]) means y < x < z."""

    __slots__ = ("names", "weights", "_index", "_unit")

    def __init__(self, names, weights=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate letter names")
        self.names = names
        self.weights = tuple(weights) if weights is not None else (1,) * len(names)
        if len(self.weights) != len(names):
            raise ValueError("one weight per letter required")
        self._index = {n: i for i, n in enumerate(names)}
        self._unit = all(w == 1 for w in self.weights)

    def index(self, name):
        return self._index[name]

    def degree(self, word):
        if self._unit:
            return len(word)
        return sum(self.weights[i] for i in word)

    def sort_key(self, word):
        """The term order: (weighted) degree first, then letters from the left."""
        return (self.degree(word), word)

    def word(self, text):
        """Build a word from concatenated letter names; ^n repeats a letter."""
        text = text.replace("*", "")
        out = []
        i = 0
        names = sorted(self.names, key=len, reverse=True)
        while i < len(text):
            found = self._letter_power(names, text, i)
            if found is None:
                raise ValueError(f"no letter of {self.names} matches {text[i:]!r}")
            letter, power, i = found
            out.extend([letter] * power)
        return tuple(out)

    def _letter_power(self, names, text, i):
        """(letter index, power, end) of the letter at text[i] and its ^power, or None if no letter starts there.

        names are the letter names longest first, so that no name is read as
        a prefix of a longer one.  A ^ without digits, or a power of more
        than MAX_POWER letters, is a ValueError raised before any word is
        built.
        """
        for name in names:
            if text.startswith(name, i):
                i += len(name)
                if not text.startswith("^", i):
                    return self._index[name], 1, i
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ValueError(f"missing exponent after {name}^ in {text!r}")
                power = int(text[i + 1 : j])
                if power > MAX_POWER:
                    raise ValueError(f"power {name}^{power} in {text!r} is more than {MAX_POWER} letters")
                return self._index[name], power, j
        return None

    def word_str(self, word):
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            name = self.names[word[i]]
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        sep = "*" if max(len(n) for n in self.names) > 1 else ""
        return sep.join(parts)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        return "<" + " < ".join(self.names) + ">"


class NCPoly:
    """Noncommutative polynomial: map from word to nonzero field payload.

    terms is a sparse payload row keyed by word, the format of the rewrite
    normal-form table and of ScalarMatrix rows; zeros are never stored.
    Reads (coeff, leading_term, sorted_terms) box coefficients into Scalars.
    """

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet, field, terms=None):
        """Polynomial with the given word -> Scalar, int or literal coefficients."""
        self.alphabet = alphabet
        self.field = field
        self.terms = {}
        if terms:
            is0 = field._is_zero
            for w, c in terms.items():
                a = field.scalar(c).payload
                if not is0(a):
                    self.terms[tuple(w)] = a

    @staticmethod
    def from_payloads(alphabet, field, terms):
        """Polynomial whose terms are the payload dict terms (no zeros), taken as its own."""
        p = NCPoly.__new__(NCPoly)
        p.alphabet, p.field, p.terms = alphabet, field, terms
        return p

    @staticmethod
    def zero(alphabet, field):
        return NCPoly(alphabet, field)

    @staticmethod
    def one(alphabet, field):
        return NCPoly(alphabet, field, {(): field.one()})

    @staticmethod
    def letter(alphabet, field, name):
        return NCPoly(alphabet, field, {(alphabet.index(name),): field.one()})

    @staticmethod
    def word(alphabet, field, text, coeff=1):
        return NCPoly(alphabet, field, {alphabet.word(text): field.scalar(coeff)})

    def _check(self, other):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(f"{self.alphabet} vs {other.alphabet}")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _plus(self, c, other):
        """self + c * other for a payload c."""
        self._check(other)
        terms = dict(self.terms)
        self.field._add_multiple(terms, c, other.terms)
        return NCPoly.from_payloads(self.alphabet, self.field, terms)

    def __add__(self, other):
        return self._plus(self.field._coerce(1), other)

    def __sub__(self, other):
        return self._plus(self.field._coerce(-1), other)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        self._check(other)
        add, out = self.field._add_multiple, {}
        for w1, c1 in self.terms.items():
            add(out, c1, {w1 + w2: c2 for w2, c2 in other.terms.items()})
        return NCPoly.from_payloads(self.alphabet, self.field, out)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        field = self.field
        c = field.scalar(c).payload
        if field._is_zero(c):
            return NCPoly(self.alphabet, field)
        mul = field._mul
        return NCPoly.from_payloads(self.alphabet, field, {w: mul(a, c) for w, a in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        # int payloads alone do not tell GF(5) from GF(7) or from Q
        return (
            isinstance(other, NCPoly)
            and self.alphabet == other.alphabet
            and self.field == other.field
            and self.terms == other.terms
        )

    def coeff(self, word):
        if isinstance(word, str):
            word = self.alphabet.word(word)
        field = self.field
        return Scalar(field, self.terms.get(tuple(word), field._coerce(0)))

    def degree(self):
        """Degree of a homogeneous polynomial; raises if mixed or zero."""
        degs = {self.alphabet.degree(w) for w in self.terms}
        if len(degs) != 1:
            raise ValueError(f"not homogeneous of a single degree: {sorted(degs)}")
        return degs.pop()

    def is_homogeneous(self):
        return len({self.alphabet.degree(w) for w in self.terms}) <= 1

    def leading_term(self):
        if not self.terms:
            raise ZeroPolynomial("leading term of 0")
        w = max(self.terms, key=self.alphabet.sort_key)
        return w, Scalar(self.field, self.terms[w])

    def monic(self):
        _, c = self.leading_term()
        return self.scale(c.inv())

    def sorted_terms(self):
        """(word, Scalar) pairs, order-largest word first."""
        key, field = self.alphabet.sort_key, self.field
        words = sorted(self.terms, key=key, reverse=True)
        return [(w, Scalar(field, self.terms[w])) for w in words]

    def __repr__(self):
        return poly_str(self)


def poly_str(p):
    if p.is_zero():
        return "0"
    chunks = []
    for w, c in p.sorted_terms():
        ws = p.alphabet.word_str(w)
        cs = str(c)
        composite = "+" in cs[1:] or "-" in cs[1:]  # e.g. 1-sqrt(2)
        if composite:
            sign, piece = "+", f"({cs})" if ws == "1" else f"({cs}){ws}"
        else:
            sign = "-" if cs.startswith("-") else "+"
            mag = cs.lstrip("-")
            if ws == "1":
                piece = mag
            elif mag == "1":
                piece = ws
            else:
                piece = f"{mag}{ws}"
        chunks.append((sign, piece))
    sign, piece = chunks[0]
    out = piece if sign == "+" else f"-{piece}"
    for sign, piece in chunks[1:]:
        out += f" {sign} {piece}"
    return out


def parse_poly(alphabet, field, text):
    """Parse "zxz + 2x^2z - 1/2y^3"-style input into an NCPoly.

    Products are juxtaposition (or an explicit * between two factors), ^
    takes a positive integer, scalar literals follow the scalar syntax
    (including sqrt(m) over a quadratic extension).
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    names = sorted(alphabet.names, key=len, reverse=True)
    out = NCPoly.zero(alphabet, field)
    i = 0
    n = len(s)
    while i < n:
        sign = 1
        while i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = field.one()
        word = []
        saw_factor = False
        while i < n and s[i] not in "+-":
            if s[i] == "*":
                if not saw_factor or i + 1 >= n or s[i + 1] in "+-*":
                    raise ValueError(f"stray '*' at position {i} of {text!r}")
                i += 1
                continue
            if s[i] == "(":
                depth, j = 1, i + 1
                while j < n and depth:
                    depth += {"(": 1, ")": -1}.get(s[j], 0)
                    j += 1
                if depth:
                    raise ValueError(f"unbalanced parentheses in {text!r}")
                coeff = coeff * field.scalar(s[i + 1 : j - 1])
                i = j
                saw_factor = True
                continue
            if s[i].isdigit() or s[i] == "/" or s.startswith("sqrt(", i):
                j = i
                if s.startswith("sqrt(", i):
                    j = s.index(")", i) + 1
                else:
                    while j < n and (s[j].isdigit() or s[j] == "/"):
                        j += 1
                    if s.startswith("sqrt(", j):  # e.g. 3sqrt(2)
                        j = s.index(")", j) + 1
                coeff = coeff * field.scalar(s[i:j])
                i = j
                saw_factor = True
                continue
            found = alphabet._letter_power(names, s, i)
            if found is None:
                raise ValueError(f"cannot parse {s[i:]!r} at position {i} of {text!r}")
            letter, power, i = found
            word.extend([letter] * power)
            saw_factor = True
        if not saw_factor:
            raise ValueError(f"empty term in {text!r}")
        term = NCPoly(alphabet, field, {tuple(word): coeff if sign == 1 else -coeff})
        out = out + term
    return out
