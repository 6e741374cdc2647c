"""Noncommutative polynomials over a finite ordered alphabet.

Words are tuples of letter indices; the listed order of the alphabet is
the letter order (first letter smallest).  The one term order is
Alphabet.sort_key: (weighted) degree first, then left-lexicographic, with
optional letter weights so that a generator may sit in a degree other
than 1.
"""

from __future__ import annotations

from .scalars import FieldMismatch, Scalar


class AlphabetMismatch(Exception):
    pass


class ZeroPolynomial(Exception):
    pass


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
            for n in names:
                if text.startswith(n, i):
                    i += len(n)
                    power = 1
                    if i < len(text) and text[i] == "^":
                        j = i + 1
                        while j < len(text) and text[j].isdigit():
                            j += 1
                        power = int(text[i + 1 : j])
                        i = j
                    out.extend([self._index[n]] * power)
                    break
            else:
                raise ValueError(f"no letter of {self.names} matches {text[i:]!r}")
        return tuple(out)

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
    """Noncommutative polynomial: map from word to nonzero Scalar."""

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet, field, terms=None):
        self.alphabet = alphabet
        self.field = field
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = field.scalar(c)
                if not c.is_zero():
                    self.terms[tuple(w)] = c

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

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            acc = terms.get(w)
            s = c if acc is None else acc + c
            if s.is_zero():
                terms.pop(w, None)
            else:
                terms[w] = s
        out = NCPoly(self.alphabet, self.field)
        out.terms = terms
        return out

    def __neg__(self):
        out = NCPoly(self.alphabet, self.field)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        self._check(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                acc = out.get(w)
                s = c if acc is None else acc + c
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        p = NCPoly(self.alphabet, self.field)
        p.terms = out
        return p

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = self.field.scalar(c)
        out = NCPoly(self.alphabet, self.field)
        if not c.is_zero():
            out.terms = {w: cc * c for w, cc in self.terms.items()}
        return out

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, NCPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def coeff(self, word):
        if isinstance(word, str):
            word = self.alphabet.word(word)
        return self.terms.get(tuple(word), self.field.zero())

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
        return w, self.terms[w]

    def monic(self):
        _, c = self.leading_term()
        return self.scale(c.inv())

    def sorted_terms(self):
        key = self.alphabet.sort_key
        return sorted(self.terms.items(), key=lambda wc: key(wc[0]), reverse=True)

    def map_coeffs(self, fn, field=None):
        out = NCPoly(self.alphabet, field or self.field)
        for w, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out.terms[w] = v
        return out

    def __repr__(self):
        return poly_str(self)


def substitute(p, images):
    """Image of p under the algebra map sending each letter to images[name].

    images maps letter names to NCPoly values in a common target algebra;
    letters absent from the map are sent to themselves (which requires the
    target alphabet to contain them).
    """
    vals = {}
    target = None
    for name, q in images.items():
        vals[p.alphabet.index(name)] = q
        target = q
    if target is None:
        return p
    alphabet, field = target.alphabet, target.field
    for i, name in enumerate(p.alphabet.names):
        if i not in vals:
            vals[i] = NCPoly.letter(alphabet, field, name)
    out = NCPoly.zero(alphabet, field)
    for w, c in p.terms.items():
        term = NCPoly(alphabet, field, {(): c})
        for i in w:
            term = term * vals[i]
        out = out + term
    return out


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
            for name in names:
                if s.startswith(name, i):
                    i += len(name)
                    power = 1
                    if i < n and s[i] == "^":
                        j = i + 1
                        while j < n and s[j].isdigit():
                            j += 1
                        power = int(s[i + 1 : j])
                        i = j
                    word.extend([alphabet.index(name)] * power)
                    saw_factor = True
                    break
            else:
                raise ValueError(f"cannot parse {s[i:]!r} at position {i} of {text!r}")
        if not saw_factor:
            raise ValueError(f"empty term in {text!r}")
        term = NCPoly(alphabet, field, {tuple(word): coeff if sign == 1 else -coeff})
        out = out + term
    return out
