"""Diamond-lemma rewriting engine for homogeneous two-sided ideals.

Rules rewrite a monomial high term to a strictly smaller tail.  Overlap
completion up to a degree bound turns a presentation into a Gröbner basis
to that degree; normal words (no high term as subword) then form a basis
of the quotient, giving the Hilbert function.  Completion is one queue
of relations and overlap S-differences taken in order of degree, so no
high term ever contains a later one.

Normal forms are carried by a letter multiplication map (Faugère, Gianni,
Lazard and Mora, JSC 16, 1993), which sends a normal word v and a letter
x to NF(v x).  Since v has no redex, a high term can occur in v x only as
a suffix, so an entry needs one lookup among the rules ending in x: none
matches and v x is normal, or v x = v1 h and the entry is the sum of c
times v1 folded through the map one letter of t at a time, over the tail
terms c t of h.  Every word met on the way is below v x in the term
order, so the entries a system asks for are finite in number and filled
on first use, with an explicit stack instead of recursion.  A word's normal form
is its letters folded from the empty word, and the normal words of
degree n + 1 are the products v x whose lookup finds no rule.

On any rule set the result is irreducible and congruent to the input.
On a system complete through a word's degree it is the unique normal
form, whatever the rewriting strategy.  Entries are sparse payload rows
keyed by word, the format of NCPoly.terms.  A RewriteSystem keeps its
map for its whole life, since its rules never change.  Completion keeps
one map for its whole run: rules are born in nondecreasing degree, so a
rule of degree D changes no entry of (v, x) with deg(v x) < D, and a
birth indexes the rule and drops only the entries of degree D and up.
The completed system starts from the entries of the completion's map
through its degree bound, each already the unique normal form.

The two degree-3 obstructions of the normalized three-generator family
are evaluated from closed-form coefficient tables, with no rewriting.
"""

from __future__ import annotations

import heapq
from itertools import islice

from .freealg import Alphabet, NCPoly


class NotCompleted(Exception):
    pass


class Rule:
    """Rewrite rule high -> tail, representing high - tail in the ideal."""

    __slots__ = ("high", "tail")

    def __init__(self, high, tail):
        high = tuple(high)
        alphabet = tail.alphabet
        hkey = alphabet.sort_key(high)
        hdeg = alphabet.degree(high)
        for w in tail.terms:
            if alphabet.sort_key(w) >= hkey:
                raise ValueError(f"tail word {alphabet.word_str(w)} not below high term")
            if alphabet.degree(w) != hdeg:
                raise ValueError("tail not homogeneous of the high term's degree")
        self.high = high
        self.tail = tail

    def element(self):
        """The ideal element high - tail as a polynomial."""
        alphabet, field = self.tail.alphabet, self.tail.field
        return NCPoly(alphabet, field, {self.high: field.one()}) - self.tail

    def degree(self):
        return self.tail.alphabet.degree(self.high)

    def __repr__(self):
        alphabet = self.tail.alphabet
        return f"{alphabet.word_str(self.high)} -> {self.tail}"


class RewriteSystem:
    """An ordered set of rules with a completion certificate."""

    __slots__ = ("alphabet", "field", "rules", "completed_to", "_right", "_words")

    def __init__(self, alphabet, field, rules, completed_to=None, letter_map=None):
        """letter_map, if given, is a _LetterMap indexed on rules, taken as the system's own."""
        self.alphabet = alphabet
        self.field = field
        self.rules = tuple(rules)
        self.completed_to = completed_to
        # (v, x) -> NF(v x); completion hands over its own map
        self._right = _LetterMap(self.rules, field) if letter_map is None else letter_map
        self._words = []  # normal-word buckets by degree, up to the largest d asked
        highs = [r.high for r in self.rules]
        for i, h in enumerate(highs):
            for j, g in enumerate(highs):
                if i != j and _contains(h, g):
                    raise ValueError(
                        f"high term {alphabet.word_str(g)} is a subword of "
                        f"{alphabet.word_str(h)}; system is not interreduced"
                    )

    def reduce(self, p):
        """An irreducible polynomial congruent to p: no high term occurs in any of its words.

        It is the sum of c * NF(w) over the terms c*w of p, each NF(w)
        the letters of w folded through the right multiplication map from
        the empty word.  Where the system is complete through the degree of
        w, NF(w) is the unique normal form, reached by every rewriting
        strategy; past that it is one irreducible representative.
        """
        return NCPoly.from_payloads(p.alphabet, p.field, self._right.normal_form(p.terms))

    def multiply(self, word, p):
        """NF(word * p) as a payload row; word must be normal.

        The letters of each term of p are folded onto word through the
        right multiplication map, starting from the entry of word and the
        term's first letter.
        """
        maps, add, out = self._right, self.field._add_multiple, {}
        for u, c in p.terms.items():
            if not u:
                add(out, c, {word: maps.one})
            else:
                add(out, c, maps.fold(maps.entry(word, u[0]), u[1:]))
        return out

    def complete(self, d):
        """Resolve all overlaps of total degree <= d; returns (system, added).

        The completion loop runs from the system's own rules, which come
        first in the result, in term order.  Added rules are the monic
        normalized unresolved S-differences, processed in increasing
        overlap degree and, within a degree, in lexicographic order of the
        overlap word.
        """
        if self.completed_to is not None and self.completed_to >= d:
            return self, []
        return _complete(self.alphabet, self.field, [r.element() for r in self.rules], d)

    def normal_words(self, d):
        """Per-degree tuples of normal words up to degree d (a basis).

        Degree n is built from the cached lower degrees: for a normal word
        v, v x is normal exactly when the right multiplication map finds no
        rule to rewrite it, the first step of its entry, so no entry is
        filled here.
        """
        if self.completed_to is None or self.completed_to < d:
            raise NotCompleted(f"system completed to {self.completed_to}, need {d}")
        words, maps, weights = self._words, self._right, self.alphabet.weights
        if not words:
            words.append(tuple(maps.unit))
        letters = range(len(weights))
        while len(words) <= d:
            n, bucket = len(words), []
            for m, vs in enumerate(words):
                xs = [x for x in letters if m + weights[x] == n]
                for v in vs if xs else ():
                    bucket.extend(v + (x,) for x in xs if maps.redex(v, x) is None)
            words.append(tuple(bucket))
        return tuple(words[: d + 1])

    def hilbert(self, d):
        """[dim of the degree-n component for n = 0..d]."""
        return [len(b) for b in self.normal_words(d)]


class _LetterMap:
    """Normal forms of normal word times letter, filled on first use.

    The entry of (v, x) is NF(v x), a payload row.  The rules are indexed
    by the letter their high term ends with, in rule order; where several
    high terms fit, the first one rewrites.
    """

    __slots__ = ("field", "index", "entries", "unit", "one")

    def __init__(self, rules, field):
        self.field, self.entries = field, {}
        self.one = field._coerce(1)
        self.unit = {(): self.one}
        self.reindex(rules)

    def reindex(self, rules):
        """Index rules in place of the indexed ones; entries are left as they are."""
        self.index = {}
        for r in rules:
            self._add(r)

    def birth(self, rule, since):
        """Index rule, of degree D at least every indexed rule's, and drop the entries of (v, x) with deg(v x) >= D.

        A rule of degree D rewrites no word below D, so no other entry
        changes.  Only the entries from position since of the dict on are
        checked: the caller passes the size the map had when it began
        the words of degree D, so every entry before it is below D.
        """
        self._add(rule)
        alphabet, entries = rule.tail.alphabet, self.entries
        degree, weights, top = alphabet.degree, alphabet.weights, alphabet.degree(rule.high)
        for v, x in list(islice(entries, since, None)):
            if degree(v) + weights[x] >= top:
                del entries[v, x]

    def _add(self, rule):
        if rule.high:
            self.index.setdefault(rule.high[-1], []).append(rule)
        else:
            # NF of the empty word: zero under a rule 1 -> 0, which makes every word zero
            self.unit = {}

    def entry(self, v, x):
        """The entry of (v, x), filled if missing; callers must not change it."""
        nf = self.entries.get((v, x))
        return self._run(self._entry((v, x))) if nf is None else nf

    def fold(self, row, word):
        """Sum of a * NF(u word) over the terms a*u of row; the words u must be normal.

        The result may be row itself, when word is empty; callers must not
        change it.
        """
        # _entry runs this loop as a suspended computation: an entry that
        # needs other missing entries suspends instead of recursing, so a
        # long rewrite chain cannot exhaust the stack.  Here, the common
        # case, every entry is present and no generator is driven unless
        # one is missing.
        entries, add = self.entries, self.field._add_multiple
        for x in word:
            out = {}
            for u, a in row.items():
                nf = entries.get((u, x))
                if nf is None:
                    nf = self._run(self._entry((u, x)))
                add(out, a, nf)
            row = out
        return row

    def normal_form(self, row):
        """Sum of c * NF(w) over the terms c*w of a payload row, each NF(w) folded from the empty word."""
        add, out = self.field._add_multiple, {}
        for w, c in row.items():
            add(out, c, self.fold(self.unit, w))
        return out

    def _run(self, steps):
        """Drive a suspended computation, filling each missing entry it yields on an explicit stack."""
        stack, value = [steps], None
        while True:
            try:
                key = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
            else:
                stack.append(self._entry(key))
                value = None

    def redex(self, v, x):
        """The first rule whose high term ends v x, or None."""
        w = v + (x,)
        for rule in self.index.get(x, ()):
            h = rule.high
            if w[len(w) - len(h) :] == h:
                return rule
        return None

    def _entry(self, key):
        """Compute and store the entry of key as a suspended computation.

        Each tail term c t of the rewriting rule is folded onto the letters
        before the high term as fold does, but a missing entry is yielded
        as its key and sent back filled.
        """
        v, x = key
        rule = self.redex(v, x)
        if rule is None:
            nf = self.entries[key] = {v + (x,): self.one}
            return nf
        start = v[: len(v) + 1 - len(rule.high)]  # the letters of v x before the high term
        entries, add, one, nf = self.entries, self.field._add_multiple, self.one, {}
        for t, c in rule.tail.terms.items():
            row = {start: one}
            for y in t:
                out = {}
                for u, a in row.items():
                    e = entries.get((u, y))
                    if e is None:
                        e = yield (u, y)
                    add(out, a, e)
                row = out
            add(nf, c, row)
        entries[key] = nf
        return nf


def _s_difference(maps, left, mpp, m, tail):
    """NF(tail_i mpp) - NF(m tail_j) as a payload row, the S-difference of an overlap hi mpp = m hj.

    left is NF(tail_i), tail the payload row of tail_j; m is a proper
    prefix of a high term, so it is normal.  By linearity of fold this is
    the normal form of tail_i mpp - m tail_j, term for term.
    """
    field = maps.field
    row, add, neg, start = maps.fold(left, mpp), field._add_multiple, field._neg, {m: maps.one}
    for t, c in tail.items():
        add(row, neg(c), maps.fold(start, t))
    return row


def _complete(alphabet, field, elements, d):
    """Complete homogeneous elements through overlap degree d: (system, added).

    Elements and the S-differences of overlaps of degree <= d share one
    heap, by degree, elements first, then in element order or by overlap
    word.  A popped element is reduced through the letter map; an overlap
    hi mpp = m hj gives the row NF(tail_i) mpp - m tail_j folded through
    it (_s_difference), with NF(tail_i) kept per rule until a rule of its
    degree is born.  A nonzero result becomes a monic rule: its lead
    word is the high term and the rest, scaled by minus the inverse of
    the lead coefficient, the tail.  A rule is thus born of degree at
    least every earlier one's, with a high term none of them rewrites, so
    no high term contains another.

    One letter map serves the whole loop and then the completed system.
    A rule born of degree D joins its index, and the map drops only the
    entries of (v, x) with deg(v x) >= D (_LetterMap.birth): no rule of
    degree D or more rewrites a word below D.

    With d None the elements are only oriented, with no certificate.
    Rules from elements come first, in term order, then the added ones as
    born; tails are interreduced once, at the end.  The map is then
    re-indexed on the interreduced rules and becomes the completed
    system's, keeping its entries through degree d, the unique normal
    forms there (all of them unless an element above d filled some past
    it; none with d None).
    """
    heap = []
    for n, p in enumerate(elements):
        if not p.is_homogeneous():
            raise ValueError(f"inhomogeneous relation {p}")
        if not p.is_zero():
            heap.append((p.degree(), 0, n, p))
    heapq.heapify(heap)
    rules, oriented, added = [], [], []
    maps = _LetterMap((), field)
    tails = {}  # rule index -> NF of its tail under the rules born so far
    inv, neg, mul = field._inv, field._neg, field._mul
    key, degree, weights = alphabet.sort_key, alphabet.degree, alphabet.weights
    top, mark = None, 0  # degree of the last popped item; len(maps.entries) when its degree began

    def normal_tail(i):
        nf = tails.get(i)
        if nf is None:
            nf = tails[i] = maps.normal_form(rules[i].tail.terms)
        return nf

    def push_overlaps(i, j):
        hi = rules[i].high
        for m, _, mpp in _overlaps(hi, rules[j].high):
            word = hi + mpp
            deg = degree(word)
            if deg <= d:
                heapq.heappush(heap, (deg, 1, word, i, j, m, mpp))

    while heap:
        item = heapq.heappop(heap)
        if item[0] != top:
            top, mark = item[0], len(maps.entries)
        if item[1] == 0:
            row = maps.normal_form(item[3].terms)
        else:
            _, _, _, i, j, m, mpp = item
            row = _s_difference(maps, normal_tail(i), mpp, m, rules[j].tail.terms)
        if not row:
            continue
        lead = max(row, key=key)
        scale = neg(inv(row[lead]))
        tail = {w: mul(a, scale) for w, a in row.items() if w != lead}
        k = len(rules)
        rules.append(Rule(lead, NCPoly.from_payloads(alphabet, field, tail)))
        (added if item[1] else oriented).append(k)
        maps.birth(rules[k], mark)
        tails = {i: nf for i, nf in tails.items() if rules[i].degree() < top}
        for i in range(k + 1 if d is not None else 0):
            push_overlaps(i, k)
            if i != k:
                push_overlaps(k, i)
    oriented.sort(key=lambda i: key(rules[i].high))
    done = [Rule(rules[i].high, NCPoly.from_payloads(alphabet, field, normal_tail(i))) for i in oriented + added]
    maps.reindex(done)
    if d is None:
        maps.entries = {}
    elif top is not None and top > d:
        maps.entries = {(v, x): nf for (v, x), nf in maps.entries.items() if degree(v) + weights[x] <= d}
    return RewriteSystem(alphabet, field, done, completed_to=d, letter_map=maps), [rules[i] for i in added]


def _contains(word, sub):
    """Whether sub occurs as a (contiguous) subword of word."""
    ls = len(sub)
    if ls == 0 or ls > len(word):
        return False
    return any(word[i : i + ls] == sub for i in range(len(word) - ls + 1))


def _overlaps(hi, hj):
    """Each (m, mid, mpp) with hi = m+mid, hj = mid+mpp and m, mid, mpp nonempty."""
    for ell in range(1, min(len(hi), len(hj))):
        if hi[len(hi) - ell :] == hj[:ell]:
            yield hi[: len(hi) - ell], hj[:ell], hj[ell:]


# The f = 1 normalized three-generator system over the alphabet y < x < z:
#     xy -> yx
#     z^2 -> zx - a x^2 - b yx - c y^2 - d xz - e yz
#     zy -> A x^2 + B yx + C y^2 + E yz
# Its two degree-3 ambiguities are the overlaps z^3 and z^2 y, with reduced
# S-differences
#     G1 = NF(tail(z^2) z - z tail(z^2)),   G2 = NF(tail(z^2) y - z tail(zy)).
# Their coefficients are integer polynomials in a, b, c, d, e, A, B, C, E,
# written as word -> ((integer, monomial), ...); a monomial spells its
# factors by coefficient name, and "" is 1.  At import each table becomes
# index form: a term is (integer, first, rest), with first and rest the
# positions in _NAMES of the monomial's factors (first None for 1), and
# the table lists the integers that an evaluation must coerce: those of
# the constant terms, and every one but 1 and -1, which only sign a term.
_YXZ = Alphabet(["y", "x", "z"])
_NAMES = "abcdeABCE"


def _table(rows):
    rows = tuple(
        (_YXZ.word(w), tuple((k, _NAMES.index(m[0]) if m else None, tuple(map(_NAMES.index, m[1:]))) for k, m in monomials))
        for w, monomials in rows
    )
    integers = {k for _, terms in rows for k, first, _ in terms if first is None or k not in (1, -1)}
    return rows, tuple(sorted(integers))


_G1 = _table((
    ("zxz", ((1, ""), (1, "d"))),
    ("zx^2", ((-1, ""), (1, "a"))),
    ("x^2z", ((-1, "a"), (1, "dd"), (1, "eA"))),
    ("x^3", ((1, "a"), (1, "ad"), (1, "bA"))),
    ("yzx", ((1, "bE"), (1, "eE"))),
    ("yxz", ((-1, "b"), (2, "de"), (1, "eB"), (-1, "deE"))),
    ("yx^2", ((1, "b"), (1, "ae"), (1, "bd"), (1, "bB"), (1, "cA"), (-1, "aeE"), (1, "cAE"))),
    ("y^2z", ((-1, "c"), (1, "ee"), (1, "eC"), (1, "cEE"), (-1, "eeE"))),
    ("y^2x", ((1, "c"), (1, "be"), (1, "bC"), (1, "cd"), (1, "cB"), (-1, "beE"), (1, "cBE"))),
    ("y^3", ((1, "ce"), (1, "cC"), (-1, "ceE"), (1, "cCE"))),
))
_G2 = _table((
    ("zx^2", ((-1, "A"),)),
    ("x^2z", ((-1, "AE"),)),
    ("x^3", ((1, "A"), (-1, "dA"), (-1, "AB"))),
    ("yzx", ((1, "E"), (-1, "BE"), (-1, "EE"))),
    ("yxz", ((-1, "dE"), (-1, "BE"), (1, "dEE"))),
    ("yx^2", ((-1, "a"), (1, "B"), (-1, "dB"), (-1, "eA"), (-1, "AC"), (-1, "BB"), (1, "aEE"), (-1, "ACE"))),
    ("y^2z", ((-1, "eE"), (-1, "CE"), (1, "eEE"), (-1, "CEE"))),
    ("y^2x", ((-1, "b"), (1, "C"), (-1, "dC"), (-1, "eB"), (-2, "BC"), (1, "bEE"), (-1, "BCE"))),
    ("y^3", ((-1, "c"), (-1, "eC"), (-1, "CC"), (1, "cEE"), (-1, "CCE"))),
))


def _coefficients(table, field, values):
    """(word, payload) of each row of a coefficient table, in row order, at the coefficient payloads values, in _NAMES order.

    Rows are evaluated as they are read, so a caller that stops early pays
    only for the rows it read.
    """
    rows, integers = table
    add, mul, neg = field._add, field._mul, field._neg
    consts = {k: field._coerce(k) for k in integers}
    for word, terms in rows:
        acc = None
        for k, first, rest in terms:
            if first is None:
                t = consts[k]
            else:
                t = values[first]
                for i in rest:
                    t = mul(t, values[i])
                if k == -1:
                    t = neg(t)
                elif k != 1:
                    t = mul(consts[k], t)
            acc = t if acc is None else add(acc, t)
        yield word, acc


def _evaluate_table(table, field, values):
    """The NCPoly of a coefficient table at the coefficient payloads values."""
    is0 = field._is_zero
    terms = {word: c for word, c in _coefficients(table, field, values) if not is0(c)}
    return NCPoly.from_payloads(_YXZ, field, terms)


def _normalized_payloads(params):
    """Coefficient payloads of an f = 1 normalized tuple, in _NAMES order; ValueError for any other tuple."""
    if not (params.D.is_zero() and params.F.is_zero() and params.f == 1):
        raise ValueError("parameters must be normalized with D = F = 0 and f = 1")
    return tuple(getattr(params, name).payload for name in _NAMES)


def degree3_overlap_elements(params):
    """The two reduced degree-3 S-differences (G1, G2) of the f=1 normalized system.

    params must carry field and coefficients a,b,c,d,e,f,A,B,C,D,E,F with
    D = F = 0 and f = 1.  The result is two polynomials over y < x < z,
    evaluated from the closed-form tables above.
    """
    field, values = params.field, _normalized_payloads(params)
    return _evaluate_table(_G1, field, values), _evaluate_table(_G2, field, values)


def second_obstruction_vanishes(params):
    """Whether G2 = 0 for the f=1 normalized tuple params (see degree3_overlap_elements).

    The table is read row by row and the answer is False at the first
    nonzero coefficient; the first row's coefficient is -A.
    """
    field = params.field
    is0 = field._is_zero
    for _, c in _coefficients(_G2, field, _normalized_payloads(params)):
        if not is0(c):
            return False
    return True
