"""Diamond-lemma rewriting engine for homogeneous two-sided ideals.

Rules rewrite a monomial high term to a strictly smaller tail.  Overlap
completion up to a degree bound turns a presentation into a Gröbner basis
to that degree; normal words (no high term as subword) then form a basis
of the quotient, giving the Hilbert function.

Reduction goes through a table of word normal forms.  A word's entry is
computed once: rewrite its leftmost redex with the first matching rule and
sum the entries of the resulting (strictly smaller) words.  A polynomial
then reduces to the sum of c * NF(w) over its terms.  Entries are sparse
payload rows keyed by word, the format of NCPoly.terms, so rule tails
feed the table and a sum of entries is the reduced polynomial as it
stands, with no conversion either way.  A RewriteSystem keeps its table
for its whole life, since its rules never change; completion, whose rule
list grows, starts a fresh table for each reduction.  The leftmost redex
is found through an index of the rules by the first letter of their high
term.

The two degree-3 obstructions of the normalized three-generator family
are evaluated from closed-form coefficient tables, with no rewriting.
"""

from __future__ import annotations

import heapq

from .freealg import Alphabet, NCPoly
from .scalars import add_multiple


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

    __slots__ = ("alphabet", "field", "rules", "completed_to", "_index", "_nf", "_words")

    def __init__(self, alphabet, field, rules, completed_to=None):
        self.alphabet = alphabet
        self.field = field
        self.rules = tuple(rules)
        self.completed_to = completed_to
        self._index = _rule_index(self.rules)
        self._nf = {}  # word -> {normal word: coefficient}
        self._words = ()  # normal-word buckets by degree, up to the largest d asked
        highs = [r.high for r in self.rules]
        for i, h in enumerate(highs):
            for j, g in enumerate(highs):
                if i != j and _contains(h, g):
                    raise ValueError(
                        f"high term {alphabet.word_str(g)} is a subword of "
                        f"{alphabet.word_str(h)}; system is not interreduced"
                    )

    @staticmethod
    def from_relations(alphabet, field, relations):
        """Orient and interreduce homogeneous relations into a rule set.

        No nonzero relation gives the rule-free system of the free algebra.
        """
        relations = [r for r in relations if not r.is_zero()]
        for r in relations:
            if not r.is_homogeneous():
                raise ValueError(f"inhomogeneous relation {r}")
        rules = []
        work = list(relations)
        while work:
            p = _reduce_terms(work.pop(0), _rule_index(rules), {})
            if p.is_zero():
                continue
            new = _monic_rule(p)
            keep = []
            for r in rules:
                if _contains(r.high, new.high):
                    work.append(r.element())
                else:
                    keep.append(r)
            keep.append(new)
            rules = keep
        rules = _interreduce_tails(rules)
        rules.sort(key=lambda r: alphabet.sort_key(r.high))
        return RewriteSystem(alphabet, field, rules)

    def reduce(self, p):
        """Normal form of p: no high term occurs as a subword of any word.

        The result is the sum of c * NF(w) over the terms c*w of p, where
        NF(w) comes from this system's word table and is computed on first
        use.  It equals rewriting the order-largest reducible word at its
        leftmost redex until none is left, on any rule set, confluent or
        not.
        """
        return _reduce_terms(p, self._index, self._nf)

    def complete(self, d):
        """Resolve all overlaps of total degree <= d; returns (system, added).

        Added rules are the monic normalized unresolved S-differences,
        processed in increasing overlap degree and, within a degree, in
        lexicographic order of the overlap word.
        """
        if self.completed_to is not None and self.completed_to >= d:
            return self, []
        alphabet, field = self.alphabet, self.field
        rules = list(self.rules)
        counter = 0
        queue = []

        def push_overlaps(i, j):
            nonlocal counter
            hi = rules[i].high
            for m, _, mpp in _overlaps(hi, rules[j].high):
                word = hi + mpp
                deg = alphabet.degree(word)
                if deg <= d:
                    counter += 1
                    heapq.heappush(queue, (deg, word, i, j, counter, m, mpp))

        n = len(rules)
        for i in range(n):
            for j in range(n):
                push_overlaps(i, j)

        added = []
        while queue:
            _, _, i, j, _, m, mpp = heapq.heappop(queue)
            left = rules[i].tail * NCPoly(alphabet, field, {mpp: field.one()})
            right = NCPoly(alphabet, field, {m: field.one()}) * rules[j].tail
            sdiff = _reduce_terms(left - right, _rule_index(rules), {})
            if sdiff.is_zero():
                continue
            rules.append(_monic_rule(sdiff))
            added.append(rules[-1])
            k = len(rules) - 1
            for i2 in range(len(rules)):
                push_overlaps(i2, k)
                if i2 != k:
                    push_overlaps(k, i2)
        rules = _interreduce_tails(rules)
        done = max(d, self.completed_to or 0)
        return RewriteSystem(alphabet, field, rules, completed_to=done), added

    def normal_words(self, d):
        """Per-degree tuples of normal words up to degree d (a basis)."""
        if self.completed_to is None or self.completed_to < d:
            raise NotCompleted(f"system completed to {self.completed_to}, need {d}")
        if len(self._words) > d:
            return self._words[: d + 1]
        highs = [r.high for r in self.rules]
        buckets = [[] for _ in range(d + 1)]
        if () not in highs:  # a rule 1 -> 0 makes the algebra zero
            buckets[0].append(())
        weights = self.alphabet.weights
        for n in range(d + 1):
            for w in buckets[n]:
                for i in range(len(self.alphabet)):
                    n2 = n + weights[i]
                    if n2 > d:
                        continue
                    u = w + (i,)
                    if any(len(h) <= len(u) and u[len(u) - len(h) :] == h for h in highs):
                        continue
                    buckets[n2].append(u)
        self._words = tuple(tuple(b) for b in buckets)
        return self._words

    def hilbert(self, d):
        """[dim of the degree-n component for n = 0..d]."""
        return [len(b) for b in self.normal_words(d)]


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


def _monic_rule(p):
    """The rule lead(p) -> lead(p) - p / lc(p) for a nonzero polynomial p."""
    w, c = p.leading_term()
    tail = (NCPoly(p.alphabet, p.field, {w: c}) - p).scale(c.inv())
    return Rule(w, tail)


def _rule_index(rules):
    """Rules by the first letter of their high term, each list in rule order.

    A rule with the empty high term matches at every position, so it sits
    in every letter's list; the key None lists those rules alone, for the
    empty word and for letters that start no high term.
    """
    index = {None: [r for r in rules if not r.high]}
    for first in {r.high[0] for r in rules if r.high}:
        index[first] = [r for r in rules if not r.high or r.high[0] == first]
    return index


def _find_redex(word, index):
    """Leftmost (pos, rule) whose high term occurs in word at pos, or None.

    At that position the first matching rule in rule order wins.
    """
    empty = index[None]
    if not word:
        return (0, empty[0]) if empty else None
    for pos, letter in enumerate(word):
        for rule in index.get(letter, empty):
            h = rule.high
            if word[pos : pos + len(h)] == h:
                return pos, rule
    return None


def _normal_form(word, index, table, field):
    """NF(word) as {normal word: payload}, filling table bottom-up.

    One rewrite at the leftmost redex yields strictly smaller words, so the
    entries needed form a finite acyclic graph; an explicit stack walks it
    without recursion.  Each stack entry is [word, children], where children
    is None until the word's redex has been looked up.
    """
    nf = table.get(word)
    if nf is not None:
        return nf
    stack = [[word, None]]
    while stack:
        top = stack[-1]
        w, children = top
        if children is None:
            if w in table:  # pushed by more than one parent
                stack.pop()
                continue
            hit = _find_redex(w, index)
            if hit is None:
                table[w] = {w: field._coerce(1)}
                stack.pop()
                continue
            pos, rule = hit
            u, v = w[:pos], w[pos + len(rule.high) :]
            children = top[1] = [(u + tw + v, tc) for tw, tc in rule.tail.terms.items()]
            missing = [[cw, None] for cw, _ in children if cw not in table]
            if missing:
                stack.extend(missing)
                continue
        table[w] = _combine(((tc, table[cw]) for cw, tc in children), field)
        stack.pop()
    return table[word]


def _combine(pairs, field):
    """Sum of c * nf over (payload, normal form) pairs, as {word: payload} without zeros."""
    acc = {}
    for c, nf in pairs:
        add_multiple(field, acc, c, nf)
    return acc


def _reduce_terms(p, index, table):
    """Sum of c * NF(w) over the terms of p, with NF entries from table."""
    field = p.field
    nf = _combine(((c, _normal_form(w, index, table, field)) for w, c in p.terms.items()), field)
    return NCPoly.from_payloads(p.alphabet, field, nf)


def _interreduce_tails(rules):
    """Reduce every tail to normal form with respect to the whole system."""
    index, table = _rule_index(rules), {}
    return [Rule(r.high, _reduce_terms(r.tail, index, table)) for r in rules]


# The f = 1 normalized three-generator system over the alphabet y < x < z:
#     xy -> yx
#     z^2 -> zx - a x^2 - b yx - c y^2 - d xz - e yz
#     zy -> A x^2 + B yx + C y^2 + E yz
# Its two degree-3 ambiguities are the overlaps z^3 and z^2 y, with reduced
# S-differences
#     G1 = NF(tail(z^2) z - z tail(z^2)),   G2 = NF(tail(z^2) y - z tail(zy)).
# Their coefficients are integer polynomials in a, b, c, d, e, A, B, C, E,
# tabled as word -> ((integer, monomial), ...); a monomial spells its
# factors by coefficient name, and "" is 1.  Each table also lists the
# integers it uses, so an evaluation coerces each of them once.
_YXZ = Alphabet(["y", "x", "z"])


def _table(rows):
    rows = tuple((_YXZ.word(w), monomials) for w, monomials in rows)
    return rows, tuple(sorted({k for _, monomials in rows for k, _ in monomials}))


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
    """(word, payload) of each row of a coefficient table, in row order, at coefficient payloads values[name].

    Rows are evaluated as they are read, so a caller that stops early pays
    only for the rows it read.
    """
    rows, integers = table
    add, mul = field._add, field._mul
    consts = {k: field._coerce(k) for k in integers}
    for word, monomials in rows:
        acc = None
        for k, monomial in monomials:
            t = consts[k]
            for name in monomial:
                t = mul(t, values[name])
            acc = t if acc is None else add(acc, t)
        yield word, acc


def _evaluate_table(table, field, values):
    """The NCPoly of a coefficient table at coefficient payloads values[name]."""
    is0 = field._is_zero
    terms = {word: c for word, c in _coefficients(table, field, values) if not is0(c)}
    return NCPoly.from_payloads(_YXZ, field, terms)


def _normalized_payloads(params):
    """Coefficient payloads of an f = 1 normalized tuple, by name; ValueError for any other tuple."""
    if not (params.D.is_zero() and params.F.is_zero() and params.f == 1):
        raise ValueError("parameters must be normalized with D = F = 0 and f = 1")
    return {name: getattr(params, name).payload for name in "abcdeABCE"}


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
