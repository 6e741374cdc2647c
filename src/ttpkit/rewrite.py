"""Diamond-lemma rewriting engine for homogeneous two-sided ideals.

Rules rewrite a monomial high term to a strictly smaller tail.  Overlap
completion up to a degree bound turns a presentation into a Gröbner basis
to that degree; normal words (no high term as subword) then form a basis
of the quotient, giving the Hilbert function.  A brute-force linear-algebra
oracle recomputes the same dimensions with no rewriting involved.

Reduction goes through a table of word normal forms.  A word's entry is
computed once: rewrite its leftmost redex with the first matching rule and
sum the entries of the resulting (strictly smaller) words.  A polynomial
then reduces to the sum of c * NF(w) over its terms.  Entries hold raw
field payloads; only the terms of a result are boxed into Scalars.  A
RewriteSystem keeps its table for its whole life, since its rules never
change; completion, whose rule list grows, starts a fresh table for each
reduction.
"""

from __future__ import annotations

import heapq

from .freealg import NCPoly
from .scalars import EchelonSpan, Scalar, add_multiple


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

    __slots__ = ("alphabet", "field", "rules", "completed_to", "_nf", "_words")

    def __init__(self, alphabet, field, rules, completed_to=None):
        self.alphabet = alphabet
        self.field = field
        self.rules = tuple(rules)
        self.completed_to = completed_to
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
            p = _reduce_terms(work.pop(0), rules, {})
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

    def reduce(self, p, rng=None):
        """Normal form of p: no high term occurs as a subword of any word.

        The result is the sum of c * NF(w) over the terms c*w of p, where
        NF(w) comes from this system's word table and is computed on first
        use.  It equals rewriting the order-largest reducible word at its
        leftmost redex until none is left, on any rule set, confluent or
        not.  Passing an rng rewrites random redexes instead, which is
        useful for confluence spot checks.
        """
        if rng is not None:
            return _reduce_random(p, self.rules, rng)
        return _reduce_terms(p, self.rules, self._nf)

    def overlaps(self):
        """All overlap configurations (i, j, m, mid, mpp), sorted by degree.

        Rule i's high term is m+mid, rule j's is mid+mpp, with mid nonempty;
        the overlap word m+mid+mpp admits two one-step reductions.
        """
        out = []
        for i, ri in enumerate(self.rules):
            for j, rj in enumerate(self.rules):
                for m, mid, mpp in _overlaps(ri.high, rj.high):
                    out.append((i, j, m, mid, mpp))
        key = lambda o: (
            self.alphabet.degree(o[2] + o[3] + o[4]),
            o[2] + o[3] + o[4],
            o[0],
            o[1],
        )
        return sorted(out, key=key)

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
            sdiff = _reduce_terms(left - right, rules, {})
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
        return HilbertProfile(tuple(len(b) for b in self.normal_words(d)))


class HilbertProfile:
    """Graded dimension counts, dims[n] = dim of the degree-n component."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        self.dims = tuple(dims)

    def __getitem__(self, n):
        return self.dims[n]

    def __len__(self):
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __eq__(self, other):
        if isinstance(other, HilbertProfile):
            return self.dims == other.dims
        return self.dims == tuple(other)

    def __repr__(self):
        return f"HilbertProfile{self.dims}"


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


def _redexes(word, rules):
    """Each (pos, rule) whose high term occurs in word at pos, leftmost first."""
    for pos in range(len(word)):
        for rule in rules:
            h = rule.high
            if word[pos : pos + len(h)] == h:
                yield pos, rule


def _find_redex(word, rules):
    """Leftmost (pos, rule) whose high term occurs in word at pos, or None."""
    return next(_redexes(word, rules), None)


def _normal_form(word, rules, table, field):
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
            hit = _find_redex(w, rules)
            if hit is None:
                table[w] = {w: field._coerce(1)}
                stack.pop()
                continue
            pos, rule = hit
            u, v = w[:pos], w[pos + len(rule.high) :]
            children = top[1] = [(u + tw + v, tc.payload) for tw, tc in rule.tail.terms.items()]
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


def _reduce_terms(p, rules, table):
    """Sum of c * NF(w) over the terms of p, with NF entries from table."""
    field = p.field
    nf = _combine(((c.payload, _normal_form(w, rules, table, field)) for w, c in p.terms.items()), field)
    out = NCPoly(p.alphabet, field)
    out.terms = {w: Scalar(field, a) for w, a in nf.items()}
    return out


def _reduce_random(p, rules, rng):
    """Rewrite a uniformly chosen redex of p until none is left."""
    terms = dict(p.terms)
    while True:
        redexes = [(w, hit) for w in terms for hit in _redexes(w, rules)]
        if not redexes:
            break
        w, (pos, rule) = redexes[rng.randrange(len(redexes))]
        c = terms.pop(w)
        u, v = w[:pos], w[pos + len(rule.high) :]
        for tw, tc in rule.tail.terms.items():
            nw = u + tw + v
            acc = terms.get(nw)
            s = tc * c if acc is None else acc + tc * c
            if s.is_zero():
                terms.pop(nw, None)
            else:
                terms[nw] = s
    out = NCPoly(p.alphabet, p.field)
    out.terms = terms
    return out


def _interreduce_tails(rules):
    """Reduce every tail to normal form with respect to the whole system."""
    table = {}
    return [Rule(r.high, _reduce_terms(r.tail, rules, table)) for r in rules]


def enumerate_words(alphabet, d):
    """All words of each (weighted) degree up to d in lexicographic order."""
    buckets = [[] for _ in range(d + 1)]
    buckets[0].append(())
    for n in range(d + 1):
        for w in buckets[n]:
            for i in range(len(alphabet)):
                n2 = n + alphabet.weights[i]
                if n2 <= d:
                    buckets[n2].append(w + (i,))
    return buckets


def hilbert_oracle(relations, d):
    """Quotient dimensions by brute-force linear algebra, no rewriting.

    For each degree n the span of {m * r * m'} inside the full word space
    is accumulated in echelon form; the codimension is the quotient dim.
    """
    relations = [r for r in relations if not r.is_zero()]
    if not relations:
        raise ValueError("no relations")
    alphabet, field = relations[0].alphabet, relations[0].field
    for r in relations:
        if not r.is_homogeneous():
            raise ValueError("relations must be homogeneous")
    words = enumerate_words(alphabet, d)
    dims = []
    for n in range(d + 1):
        index = {w: i for i, w in enumerate(words[n])}
        span = EchelonSpan(field)
        for r in relations:
            k = r.degree()
            if k > n:
                continue
            for dm in range(n - k + 1):
                for m in words[dm]:
                    for mp in words[n - k - dm]:
                        span.insert({index[m + w + mp]: c.payload for w, c in r.terms.items()})
        dims.append(len(index) - span.rank)
    return HilbertProfile(tuple(dims))


def degree3_overlap_elements(params):
    """The two reduced degree-3 S-differences of the f=1 normalized system.

    params must carry field and coefficients a,b,c,d,e,f,A,B,C,D,E,F with
    D = F = 0 and f = 1.  The rule set is
        xy -> yx
        z^2 -> zx - a x^2 - b yx - c y^2 - d xz - e yz
        zy -> A x^2 + B yx + C y^2 + E yz
    and the returned pair is (G1, G2) with
        G1 = reduce(tail(z^2) z - z tail(z^2))   (overlap z^3)
        G2 = reduce(tail(z^2) y - z tail(zy))    (overlap z^2 y)
    """
    field = params.field
    one = field.one()
    if not (params.D.is_zero() and params.F.is_zero() and params.f == one):
        raise ValueError("parameters must be normalized with D = F = 0 and f = 1")
    from .freealg import Alphabet

    A3 = Alphabet(["y", "x", "z"])

    def poly(spec):
        return NCPoly(A3, field, {A3.word(w): c for w, c in spec.items()})

    tail_z2 = poly(
        {"zx": one, "x^2": -params.a, "yx": -params.b, "y^2": -params.c, "xz": -params.d, "yz": -params.e}
    )
    tail_zy = poly({"x^2": params.A, "yx": params.B, "y^2": params.C, "yz": params.E})
    rules = [
        Rule(A3.word("xy"), poly({"yx": one})),
        Rule(A3.word("z^2"), tail_z2),
        Rule(A3.word("zy"), tail_zy),
    ]
    rs = RewriteSystem(A3, field, rules)
    z = NCPoly.letter(A3, field, "z")
    y = NCPoly.letter(A3, field, "y")
    g1 = rs.reduce(tail_z2 * z - z * tail_z2)
    g2 = rs.reduce(tail_z2 * y - z * tail_zy)
    return g1, g2
