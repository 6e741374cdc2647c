"""Shared reference data for tests.

The two degree-3 obstruction elements of the three-generator family have
hand-checked coefficient expansions; freezing them here gives the library's
closed-form tables an independent target to reproduce at arbitrary
specializations.  ``rewrite_degree3_overlap_elements`` computes the same
pair by rewriting in ``overlap_system``, a second oracle.
``reference_reduce`` is a direct rewriting loop that ``RewriteSystem.reduce``
and the multiplication maps must agree with on systems complete through
the degree, and ``random_reduce`` rewrites random redexes for confluence
spot checks.
``reference_c_row`` decides a C census row from the tuple itself, where the
census decides it once per class key, and ``c_census_keys`` lists the keys
of the canonical classes that a C census decides.  ``reference_t_blocks`` lists
every outer tuple of the normalized T space and ``reference_t_locus``
solves each one with ``reference_ttp_locus``, the former per-outer
solver, where the census has ``ttp_locus`` solve a whole block and yield
only the outer tuples that can carry a candidate; ``solved_t_locus``
lists what that block solver yields in scan order.  ``census_oracle`` is
the census as a per-tuple fold, ``scan_row`` on every tuple of ``product_space``
(of ``reference_t_space`` for T), where the census decides one
representative per class;
``census_text`` and ``census_counts`` give its ``--out`` text and its
``[machine]`` counts, and ``census_report`` its whole stdout.
``reference_orbit`` and ``reference_nonvanishing`` step the (e_n, f_n)
recurrence with Scalar operators, where ``sequences`` steps raw
payloads.  ``reference_iso_type_2d`` (with ``reference_solve_quadratic``)
is the Scalar form of the two-generator isomorphism type and its
congruence witnesses, and ``reference_dependence_relation`` builds the
not_ttp relation from ``efgh`` and ``Alphabet.word`` strings, where
``classify`` computes both on payloads.  ``obstruction_decision_3d`` decides a three-generator tuple
from both obstructions in full, where
``classify_3d`` reads G2 only to its first nonzero coefficient and G1 only
on elliptic tuples.  ``reference_apply_basis_change``,
``reference_jordan_normal_form_3d`` and ``reference_classify_3d`` are the
Scalar forms of the basis-change action, the normalization and the
trichotomy, with the Scalar residuals, case ids and elliptic constraints
beside them, where ``families`` and ``classify`` compute all of them on
the twelve coefficient payloads.  ``hilbert_oracle`` recomputes quotient dimensions by
linear algebra on the whole word space, with no rewriting involved.
``euler_check`` tests a resolution's Betti numbers against the Hilbert
function, and ``compose_check`` that consecutive differentials of a
complex compose to zero.  ``dual_complex_gorenstein`` is the former
Gorenstein test, which ``dualize``s a resolution into a ``RightComplex``
and reads its homology; the Frobenius test on the quadratic dual must
agree with it.  ``from_relations`` orients relations into a rule set
with no completion.  ``greedy_new_generators`` is the minimal
resolution's former rule for picking new generators, a greedy insert of
the kernel vectors after the image, which the selection in kernel
coordinates must reproduce.  The remaining oracles check the library's
verdicts and witnesses from outside: ``ideal_membership`` tests an element
against the relation ideal, ``derivation_check`` the Ore-data equations,
``substitute`` (with ``basis_change_substitution`` and ``inverse_steps``
for its letter images, and ``map_coeffs`` for a field extension) carries
relations along an isomorphism, ``relation_phi_matrix`` reads the
phi-matrix off a two-generator relation, and ``rigidity_check_2d``
compares canonical tuples.  ``parse_machine_block`` reads a report's
``[machine]`` block back into a dict.  ``assert_payload_terms`` checks that a
polynomial stores raw field payloads only; the oracles box coefficients at
entry and do their arithmetic on Scalars, so they share no code with it.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

from ttpkit.classify import (
    HILBERT_DEGREE,
    CongruenceData,
    IsoType2D,
    JNF3DResult,
    Step,
    TTPType3D,
    Witness,
    canonical_2d,
    classify_2d_ttp,
    congruence_verify,
    classify_3d,
    graded_iso_type_2d,
    jordan_normal_form_3d,
    reducible_case_id,
    ttp_locus,
)
from ttpkit.cli import ROW_FIELDS, SCAN_PARAMS, ParseError, _scan_allowed, _t_size, c_class_key, render, scan_row
from ttpkit.families import EllipticForm, ParamTuple2D, ParamTuple3D, mat2_inv, twisting_axiom_mismatch
from ttpkit.freealg import Alphabet, NCPoly
from ttpkit.homology import GradedComplex, exactness_profile
from ttpkit.koszulreg import asreg_decide_2d
from ttpkit.rewrite import (
    NotCompleted,
    RewriteSystem,
    Rule,
    _complete,
    degree3_overlap_elements,
    second_obstruction_vanishes,
)
from ttpkit.scalars import (
    CharTwo,
    EchelonSpan,
    NestedExtension,
    NoRoot,
    PrimeField,
    QuadExtField,
    QuadraticRoots,
    Scalar,
    ScalarMatrix,
    Unsupported,
    adjoin_sqrt,
)
from ttpkit.sequences import efgh, fn_nonvanishing

YXZ = Alphabet(["y", "x", "z"])


def make_params3d(field, **kw):
    """A bare 12-coefficient tuple (plus field) for the rewrite-level API."""
    vals = {k: field.scalar(kw.get(k, 0)) for k in "abcdef"}
    vals.update({k: field.scalar(kw.get(k, 0)) for k in "ABCDEF"})
    return SimpleNamespace(field=field, **vals)


def expected_g1_coeffs(p):
    """Word -> coefficient for the z^3 obstruction, in the y < x < z alphabet."""
    a, b, c, d, e, A, B, C, E = p.a, p.b, p.c, p.d, p.e, p.A, p.B, p.C, p.E
    one = p.field.one()
    return {
        "zxz": one + d,
        "zx^2": a - one,
        "x^2z": -(a - d * d - e * A),
        "x^3": a + a * d + b * A,
        "yzx": (b + e) * E,
        "yxz": e * B - d * e * E + 2 * d * e - b,
        "yx^2": b + b * d + b * B + c * A + c * A * E + a * e - a * e * E,
        "y^2z": c * E * E - c + e * C - e * e * E + e * e,
        "y^2x": c + c * d + b * C + c * B + c * B * E - b * e * E + b * e,
        "y^3": c * C + c * C * E - c * e * E + c * e,
    }


def expected_g2_coeffs(p):
    """Word -> coefficient for the z^2 y obstruction, in the y < x < z alphabet."""
    a, b, c, d, e, A, B, C, E = p.a, p.b, p.c, p.d, p.e, p.A, p.B, p.C, p.E
    return {
        "zx^2": -A,
        "x^2z": -A * E,
        "x^3": A - d * A - A * B,
        "yzx": E - B * E - E * E,
        "yxz": -(d * E + B * E - d * E * E),
        "yx^2": B - a - d * B - B * B - A * C - A * C * E + a * E * E - e * A,
        "y^2z": -(C * E * E + C * E + e * E - e * E * E),
        "y^2x": C - b - d * C - 2 * B * C - B * C * E + b * E * E - e * B,
        "y^3": -(c + C * C + C * C * E - c * E * E + e * C),
    }


def overlap_system(params):
    """The f = 1 normalized three-rule system over y < x < z (D = F = 0)."""
    field = params.field
    one = field.one()

    def poly(spec):
        return NCPoly(YXZ, field, {YXZ.word(w): c for w, c in spec.items()})

    tail_z2 = poly({"zx": one, "x^2": -params.a, "yx": -params.b, "y^2": -params.c,
                    "xz": -params.d, "yz": -params.e})
    tail_zy = poly({"x^2": params.A, "yx": params.B, "y^2": params.C, "yz": params.E})
    rules = [
        Rule(YXZ.word("xy"), poly({"yx": one})),
        Rule(YXZ.word("z^2"), tail_z2),
        Rule(YXZ.word("zy"), tail_zy),
    ]
    return RewriteSystem(YXZ, field, rules)


def rewrite_degree3_overlap_elements(params):
    """(G1, G2) by rewriting: the reduced S-differences of the overlaps z^3 and z^2 y."""
    rs = overlap_system(params)
    _, tail_z2, tail_zy = (rule.tail for rule in rs.rules)
    z = NCPoly.letter(YXZ, rs.field, "z")
    y = NCPoly.letter(YXZ, rs.field, "y")
    return rs.reduce(tail_z2 * z - z * tail_z2), rs.reduce(tail_z2 * y - z * tail_zy)


def assert_poly_matches(poly, expected):
    """Compare an NCPoly against a word-string -> Scalar coefficient table over its field."""
    alphabet, field = poly.alphabet, poly.field
    want = {alphabet.word(w): field.scalar(c).payload for w, c in expected.items() if not c.is_zero()}
    assert poly.terms == want, f"got {poly}, want {want}"


def _redexes(w, rules):
    """Each (pos, rule) whose high term occurs in w at pos, leftmost first.

    An empty high term matches every word, the empty word included.
    """
    return ((pos, rule) for pos in range(len(w) + 1) for rule in rules
            if w[pos : pos + len(rule.high)] == rule.high)


def is_irreducible(p, rules):
    """Whether no high term of rules occurs in any word of p."""
    return not any(next(_redexes(w, rules), None) for w in p.terms)


def is_payload(field, a):
    """Whether a is a raw payload of field in canonical form (see scalars), not a Scalar."""
    if isinstance(field, QuadExtField):
        return type(a) is tuple and len(a) == 2 and all(is_payload(field.base, x) for x in a)
    if isinstance(field, PrimeField):
        return type(a) is int and 0 <= a < field.p
    return type(a) is int or (type(a) is Fraction and a.denominator > 1)


def assert_payload_terms(poly):
    """Every term of poly holds a nonzero raw payload of poly's field."""
    for w, a in poly.terms.items():
        assert is_payload(poly.field, a), f"term {w} of {poly} holds {a!r}, not a {poly.field} payload"
        assert not poly.field._is_zero(a), f"term {w} of {poly} stores a zero"


def _boxed(p):
    """The terms of p as word -> Scalar, so the oracles below never touch payload arithmetic."""
    return {w: Scalar(p.field, a) for w, a in p.terms.items()}


def _rewrite(terms, w, pos, rule):
    """Replace the term on w by its one-step rewrite at pos with rule, in place."""
    c = terms.pop(w)
    u, v = w[:pos], w[pos + len(rule.high) :]
    for tw, tc in _boxed(rule.tail).items():
        nw = u + tw + v
        s = tc * c if nw not in terms else terms[nw] + tc * c
        if s.is_zero():
            terms.pop(nw, None)
        else:
            terms[nw] = s


def reference_reduce(p, rules):
    """Normal form of p by direct rewriting; a slow test oracle.

    Each step re-sorts the terms and rewrites the order-largest reducible
    word at its leftmost redex, with the first rule that matches there.
    """
    terms = _boxed(p)
    while True:
        target = None
        for w in sorted(terms, key=p.alphabet.sort_key, reverse=True):
            target = next(_redexes(w, rules), None)
            if target is not None:
                _rewrite(terms, w, *target)
                break
        if target is None:
            return NCPoly(p.alphabet, p.field, terms)


def random_reduce(p, rules, rng):
    """Normal form of p by rewriting a uniformly chosen redex until none is left.

    On a confluent system every rewriting strategy reaches the same normal
    form, so agreement with ``RewriteSystem.reduce`` spot-checks confluence.
    """
    terms = _boxed(p)
    while True:
        redexes = [(w, *hit) for w in terms for hit in _redexes(w, rules)]
        if not redexes:
            return NCPoly(p.alphabet, p.field, terms)
        _rewrite(terms, *redexes[rng.randrange(len(redexes))])


def reference_c_row(p, values, bound=50):
    """The census row of the C tuple values over GF(p), decided on the tuple itself, not its class."""
    v = classify_2d_ttp(ParamTuple2D.make(PrimeField(p), **values), bound)
    iso = graded_iso_type_2d(v) if v.is_ttp else None
    reg = asreg_decide_2d(iso) if iso else None
    return {
        "tuple": ",".join(f"{k}:{x}" for k, x in values.items()),
        "verdict": v.kind,
        "case": iso.kind if iso else "-",
        "koszul": "-" if reg is None else "koszul" if reg.koszul else "not_koszul",
        "asreg": "-" if reg is None else "regular" if reg.decision else "not_regular",
        "certified_to": "exact" if v.certified_to is None else str(v.certified_to),
    }


def reference_t_blocks(p, ranges):
    """The normalized f = 1 T space over GF(p) as blocks (abc, outers), in scan order, every outer tuple listed.

    A block holds the tuples with (a, b, c) in the product of the three
    lists abc and an outer tuple (e, d, A, B, C, E) from outers, ordered by
    (a, b, c) first.  The side conditions: D = F = 0, e in {0, 1}, A in
    {0, 1} when e = 0, C in {0, 1} when e = A = 0, and E = d when e = 1;
    each list keeps the order of the ranges.  Ranges that leave no tuple
    are the same parse error as ``cli.t_blocks``.
    """
    allowed = _scan_allowed(p, "T", ranges)
    es = allowed("e", [0, 1])
    bad = [v for v in es if v not in (0, 1)]
    if bad:
        raise ParseError(f"--ranges gives e = {bad[0]}, but the normalized T space has e in {{0, 1}}")
    abc = [allowed(n) for n in "abc"]
    As = [A for A in allowed("A") if A in (0, 1)]
    Cs = allowed("C")
    C01 = {C for C in Cs if C in (0, 1)}
    Es = allowed("E")
    E_set = set(Es)
    dEs = [d for d in allowed("d") if d in E_set]
    empty = {0: None, 1: None}
    if not As:
        empty[0] = "A in {0, 1} when e = 0"
    elif As == [0] and not C01:
        empty[0] = "C in {0, 1} when e = A = 0"
    if not dEs:
        empty[1] = "E = d when e = 1"
    if all(empty[e] for e in es):
        why = " and ".join(empty[e] for e in es)
        raise ParseError(f"--ranges leave no tuple of the normalized T space, which has {why}")
    blocks = []
    for e in es:
        if e == 0:
            dBCE = list(product(allowed("d"), allowed("B"), Cs, Es))
            blocks += [(abc, [(0, d, A, B, C, E) for d, B, C, E in dBCE if A != 0 or C in C01]) for A in As]
        else:
            blocks.append((abc, [(1, d, A, B, C, d) for d, A, B, C in product(dEs, *map(allowed, "ABC"))]))
    return blocks


def reference_ttp_locus(p, outer, abc):
    """The (a, b, c) that can make a normalized f = 1 tuple a twisted tensor product, in ints mod p.

    outer is (e, d, A, B, C, E), and abc = (as, bs, cs) lists the values
    that a, b and c may take; the candidates come in product order.

    The first coefficient of G2 is -A.  So A != 0 leaves only the elliptic
    plane e = 0, d = -1, A = 1, E = -1, b = (1-a)(2-B).  A = 0 leaves
    G2 = 0, that is the six equations of reducible_system_residuals: 1, 2
    and 4 read no a, b or c, and 3, 5 and 6 are linear in a, b and c with
    the one coefficient 1 - E^2.  Where it vanishes the coordinate runs
    over all of its values.  The locus only chooses candidates: classify_3d
    decides each one, and every tuple outside it has G2 != 0 and fails an
    elliptic constraint.
    """
    e, d, A, B, C, E = outer
    as_, bs, cs = abc
    if A:
        if e or (A - 1) % p or (d + 1) % p or (E + 1) % p:
            return []
        out = []
        for a in as_:
            b = (1 - a) * (2 - B) % p
            if b in bs:
                out += [(a, b, c) for c in cs]
        return out
    if E * (1 - B - E) % p or E * (d * E - d - B) % p or E * (C + C * E + e - e * E) % p:
        return []
    k = (1 - E * E) % p

    def solve(rhs, values):
        # the values v with k v = rhs
        if not k:
            return [] if rhs % p else values
        v = rhs * pow(k, -1, p) % p
        return [v] if v in values else []

    return list(product(
        solve(B * (1 - d - B), as_),
        solve(C * (1 - d - 2 * B - B * E) - e * B, bs),
        solve(-(1 + E) * C * C - e * C, cs),
    ))


def _scan_ordered(abc, found):
    """The candidates (a, b, c, outer) of a block in scan order, from (outer position, (a, b, c), outer) triples."""
    pos = [{v: i for i, v in enumerate(values)} for values in abc]
    return [candidate for _, candidate in sorted(((pos[0][a], pos[1][b], pos[2][c], k), (a, b, c, outer))
                                                 for k, (a, b, c), outer in found)]


def reference_t_locus(p, blocks):
    """(size, candidates) of reference T blocks: reference_ttp_locus on every outer tuple, candidates (a, b, c, outer) in scan order."""
    size, candidates = 0, []
    for abc, outers in blocks:
        size += len(outers) * len(abc[0]) * len(abc[1]) * len(abc[2])
        candidates += _scan_ordered(abc, [(k, candidate, outer) for k, outer in enumerate(outers)
                                          for candidate in reference_ttp_locus(p, outer, abc)])
    return size, candidates


def solved_t_locus(p, blocks):
    """(size, candidates) of census T blocks as the block solver ttp_locus yields them, candidates in scan order."""
    candidates = []
    for block in blocks:
        solved = ttp_locus(p, block.e, block.axes, block.abc)
        candidates += _scan_ordered(block.abc, [(k, candidate, outer) for k, (outer, found) in enumerate(solved)
                                                for candidate in found])
    return sum(map(_t_size, blocks)), candidates


def reference_t_space(p, ranges):
    """The values of every tuple of the reference T blocks, in scan order."""
    for abc, outers in reference_t_blocks(p, ranges):
        for a, b, c in product(*abc):
            for e, d, A, B, C, E in outers:
                yield dict(a=a, b=b, c=c, d=d, e=e, f=1, A=A, B=B, C=C, D=0, E=E, F=0)


def product_space(p, family, ranges):
    """The values of every C or Tgh census tuple over GF(p), in scan order: the product of the allowed residues."""
    allowed = _scan_allowed(p, family, ranges)
    names = SCAN_PARAMS[family]
    return [dict(zip(names, t)) for t in product(*map(allowed, names))]


def c_census_keys(p, ranges, bound=50):
    """The distinct cli.c_class_key of the canonical classes of the C tuples that ranges select over GF(p).

    The classes come from classify.canonical_2d on each tuple, not from the
    census's canonical_head on ints.
    """
    field = PrimeField(p)
    key = c_class_key(field, bound)
    heads = (canonical_2d(ParamTuple2D.make(field, **values)) for values in product_space(p, "C", ranges))
    return {key(t.a.payload, t.b.payload, t.c.payload) for t in heads}


def census_oracle(p, family, ranges=None, bound=50):
    """The census rows over GF(p) from scan_row on every tuple, in scan order.

    The T tuples come from reference_t_space, the others from product_space.
    Each row holds the ROW_FIELDS columns: the tuple column, formatted here
    from the tuple's values, then the columns of its scan_row.
    """
    field = PrimeField(p)
    space = reference_t_space(p, ranges or {}) if family == "T" else product_space(p, family, ranges or {})
    return [(",".join(f"{k}:{v}" for k, v in values.items()), *scan_row((field, family, bound, values)))
            for values in space]


def census_text(rows):
    """The --out text of census rows."""
    lines = ["\t".join(ROW_FIELDS)] + ["\t".join(row) for row in rows]
    return "".join(line + "\n" for line in lines)


def census_counts(rows):
    """The total and count_ entries that a census of these rows puts in its [machine] block."""
    counts = Counter("count_" + ":".join(row[1:5]) for row in rows)
    return {"total": str(len(rows)), **{key: str(n) for key, n in counts.items()}}


def census_report(p, family, rows, bound=50, out=None):
    """The stdout of a census over GF(p) whose rows are rows, with --out path out if given."""
    counts = Counter(row[1:5] for row in rows)
    human = [f"census of family {family} over GF({p}): {len(rows)} tuples", "  verdict | case | koszul | asreg | count"]
    human += ["  " + " | ".join(key) + f" | {counts[key]}" for key in sorted(counts)]
    if out:
        human.append(f"rows written to {out}")
    bounded = sum(row[1] != "unknown" and row[5] != "exact" for row in rows)
    if bounded:
        human.append(f"note: {bounded} tuples certified only to the scan bound N={bound}")
    unknowns = sum(row[1] == "unknown" for row in rows)
    if unknowns:
        human.append(f"note: {unknowns} tuples undecided at the scan bound")
    return render(human, {"family": family, "field": PrimeField(p), "bound": bound, **census_counts(rows)})


def reference_orbit(a, b, n):
    """(e_k, f_k, g_k, h_k) for k = 0..n, stepped with Scalar operators."""
    one = a.field.one()
    e = f = one
    rows = []
    for _ in range(n + 1):
        rows.append((e, f, (one - b) * e - f, -a * e))
        e, f = b * e + f, -a * e + f
    return rows


def reference_nonvanishing(a, b, bound):
    """(zero_index, cycle_closed) of the scan of f_1..f_bound over reference_orbit.

    A repeated state closes the cycle over any field: the orbit is then
    periodic from that state on, and so is every f_n.
    """
    if a.is_zero():
        return None, True
    seen = set()
    for n, (e, f, _, _) in enumerate(reference_orbit(a, b, bound)):
        if f.is_zero():
            return n, False
        if (e, f) in seen:
            return None, True
        seen.add((e, f))
    return None, False


def reference_solve_quadratic(p2, p1, p0):
    """The QuadraticRoots of p2*q^2 + p1*q + p0, computed with Scalar operators."""
    field = p2.field
    if p2.is_zero() and p1.is_zero() and p0.is_zero():
        raise ValueError("identically zero quadratic")
    if p2.is_zero():
        if p1.is_zero():
            raise NoRoot("constant nonzero polynomial has no roots")
        return QuadraticRoots(field, [-p0 / p1], [1], False)
    if field.characteristic() == 2:
        if p1.is_zero():
            r = field.sqrt(p0 / p2)
            if r is None:
                raise Unsupported("inseparable quadratic with no root in the field")
            return QuadraticRoots(field, [r], [2], False)
        roots = [x for x in field.elements() if (p2 * x * x + p1 * x + p0).is_zero()]
        if len(roots) == 2:
            return QuadraticRoots(field, roots, [1, 1], False)
        raise Unsupported("separable quadratic splits only in GF(p^2)")
    disc = p1 * p1 - 4 * p2 * p0
    two_a = 2 * p2
    if disc.is_zero():
        return QuadraticRoots(field, [-p1 / two_a], [2], False)
    ext, w = adjoin_sqrt(disc)
    if ext == field:
        return QuadraticRoots(field, [(-p1 + w) / two_a, (-p1 - w) / two_a], [1, 1], False)
    p1e, p2e = ext.embed(p1), ext.embed(p2)
    return QuadraticRoots(ext, [(-p1e + w) / (2 * p2e), (-p1e - w) / (2 * p2e)], [1, 1], True)


def _reference_canonical_2d(p):
    field = p.field
    if not p.c.is_zero():
        return ParamTuple2D(p.a * p.c, p.b, field.one())
    if not p.a.is_zero():
        return ParamTuple2D(field.one(), p.b, field.zero())
    return p


def _reference_skew_matrix(q):
    field = q.field
    return ScalarMatrix(field, [[field.zero(), -q], [field.one(), field.zero()]])


def _reference_c_matrix(a, b):
    field = a.field
    return ScalarMatrix(field, [[-a, -b], [field.one(), -field.one()]])


def reference_iso_type_2d(v):
    """graded_iso_type_2d of the verdict v, computed with Scalar operators and dense matrices."""
    if not v.is_ttp:
        raise ValueError(f"not a twisted tensor product: {v}")
    field = v.params.field
    cp = _reference_canonical_2d(v.params)
    a, b = cp.a, cp.b
    one = field.one()
    if cp.c.is_zero():
        if cp.a.is_zero():
            kind = "zx_zero" if b.is_zero() else "skew"
            return IsoType2D(kind, b, cp, {"x": "x", "z": "z"}, (b,))
        if b == one:
            return IsoType2D("jordan", None, cp, {"x": "-z", "z": "x"})
        kind = "zx_zero" if b.is_zero() else "skew"
        return IsoType2D(kind, b, cp, {"x": f"({one - b})x", "z": "x + z"}, (b,))
    if (4 * a - (b - one) * (b - one)).is_zero():
        s = field.sqrt(a) if field.characteristic() == 2 else (b - one) / 2
        n = ScalarMatrix(field, [[one + s, field.zero()], [s, one]])
        jordan = ScalarMatrix(field, [[field.zero(), -one], [one, -one]])
        cd = CongruenceData(jordan, n, _reference_c_matrix(a, b))
        assert congruence_verify(cd)
        return IsoType2D("jordan", None, cp, cd)
    if b == field.scalar(-1):
        if field.characteristic() == 2:
            raise CharTwo("the q = -1 branch requires characteristic != 2")
        ext, w = adjoin_sqrt(one - a)
        if ext != field:
            a, b = ext.embed(a), ext.embed(b)
        e1 = ext.one()
        two = ext.scalar(2)
        n = ScalarMatrix(ext, [[(e1 + w) / two, -e1 / two], [w - e1, e1]])
        q = -e1
        cd = CongruenceData(_reference_skew_matrix(q), n, _reference_c_matrix(a, b))
        assert congruence_verify(cd)
        return IsoType2D("skew", q, cp, cd, (q,))
    res = reference_solve_quadratic(a + b, 2 * a - b * b - one, a + b)
    roots = tuple(res.roots)
    q = min(roots, key=lambda r: r.sort_key())
    F2 = res.field
    if res.extended:
        a, b = F2.embed(a), F2.embed(b)
    e1 = F2.one()
    n = ScalarMatrix(F2, [[(b * q - e1) / (q * q - e1), e1 / (q - e1)], [(b - q) / (q + e1), e1]])
    cd = CongruenceData(_reference_skew_matrix(q), n, _reference_c_matrix(a, b))
    assert congruence_verify(cd)
    return IsoType2D("zx_zero" if q.is_zero() else "skew", q, cp, cd, roots)


def reference_dependence_relation(t, b, n):
    """The not_ttp relation e_n z x^n z - g_n x^(n+1) z + t e_n x^(n+2) of build_C's alphabet, from efgh."""
    alphabet = Alphabet(["x", "z"])
    row = efgh(t, b, n)
    terms = {
        alphabet.word("z" + "x" * n + "z"): row.e,
        alphabet.word("x" * (n + 1) + "z"): -row.g,
        alphabet.word("x" * (n + 2)): t * row.e,
    }
    return NCPoly(alphabet, t.field, terms)


def decision_3d(t):
    """(kind, case, certified_to, witness) of a TTPType3D, the witness as (kind, data) or None."""
    w = t.witness
    return t.kind, t.case, t.certified_to, None if w is None else (w.kind, w.data)


def obstruction_decision_3d(p, bound=50):
    """decision_3d of p's verdict, an f = 1 tuple decided from G1 and G2 in full.

    Both obstructions are evaluated by degree3_overlap_elements for every
    tuple, and every elliptic constraint is evaluated before the first
    failing one is named.  A tuple that does not normalize, or has f = 0,
    never reaches the obstructions and is left to classify_3d.
    """
    jnf = jordan_normal_form_3d(p)
    q = jnf.params
    if not jnf.normalized or q.f.is_zero():
        return decision_3d(classify_3d(p, bound))
    one = q.field.one()
    g1, g2 = degree3_overlap_elements(q)
    if g2.is_zero():
        report = fn_nonvanishing(q.a, q.d, bound)
        if not report.all_nonzero:
            return "not_ttp", None, None, ("fn_zero", {"n": report.zero_index, "a": q.a, "d": q.d})
        return "reducible", reducible_case_id(q), None if report.cycle_closed else bound, None
    constraints = [
        ("e = 0", q.e.is_zero()),
        ("d = -1", q.d == -one),
        ("A = 1", q.A == one),
        ("E = -1", q.E == -one),
        ("b = (1-a)(2-B)", q.b == (one - q.a) * (q.field.scalar(2) - q.B)),
    ]
    bad = next((name for name, ok in constraints if not ok), None)
    if bad is not None:
        return "not_ttp", None, None, ("constraint_violated", {"constraint": bad})
    assert g1 == g2.scale(one - q.a)
    return "elliptic", None, None, None


def _reference_quad_transform(q, pm):
    """Push a quadratic (qa, qb, qc) of Scalars through x,y -> rows of pm."""
    qa, qb, qc = q
    p00, p01 = pm[0, 0], pm[0, 1]
    p10, p11 = pm[1, 0], pm[1, 1]
    na = qa * p00 * p00 + qb * p00 * p10 + qc * p10 * p10
    nb = 2 * qa * p00 * p01 + qb * (p00 * p11 + p01 * p10) + 2 * qc * p10 * p11
    nc = qa * p01 * p01 + qb * p01 * p11 + qc * p11 * p11
    return (na, nb, nc)


def reference_apply_basis_change(p, pm, lam):
    """apply_basis_change computed with Scalar operators and matrix products."""
    field = p.field
    lam = field.scalar(lam)
    pinv = mat2_inv(pm)
    lam_inv = lam.inv()
    qx, qy = (p.a, p.b, p.c), (p.A, p.B, p.C)
    new_q = []
    for row in range(2):
        pr, qr = pinv[row, 0], pinv[row, 1]
        mix = tuple(pr * u + qr * v for u, v in zip(qx, qy))
        new_q.append(tuple(lam_inv * t for t in _reference_quad_transform(mix, pm)))
    sigma2 = pinv * ScalarMatrix(field, [[p.d, p.e], [p.D, p.E]]) * pm
    fF = [lam * (pinv[0, 0] * p.f + pinv[0, 1] * p.F), lam * (pinv[1, 0] * p.f + pinv[1, 1] * p.F)]
    return ParamTuple3D(
        a=new_q[0][0], b=new_q[0][1], c=new_q[0][2],
        d=sigma2[0, 0], e=sigma2[0, 1], f=fF[0],
        A=new_q[1][0], B=new_q[1][1], C=new_q[1][2],
        D=sigma2[1, 0], E=sigma2[1, 1], F=fF[1],
    )


def _reference_left_eigvec(field, d, e, D, E, lam):
    if not D.is_zero():
        return [field.one(), -(d - lam) / D]
    if not (E - lam).is_zero():
        return [field.one(), -e / (E - lam)]
    return [field.zero(), field.one()]


def _reference_left_generalized(field, d, e, D, E, lam, u):
    sol = ScalarMatrix(field, [[d - lam, D], [e, E - lam]]).solve(u)
    assert sol is not None, "generalized eigenvector must exist for a Jordan block"
    return sol


def reference_jordan_normal_form_3d(p):
    """jordan_normal_form_3d computed with Scalar operators, reference_apply_basis_change and reference_solve_quadratic."""
    field = p.field
    steps = []
    cur = p

    def push(kind, pm=None, lam=1, note=""):
        nonlocal cur
        fld = cur.field
        identity = ScalarMatrix.identity(fld, 2)
        pm = identity if pm is None else pm
        if lam == 1 and pm == identity:
            return
        lam = fld.scalar(lam)
        cur = reference_apply_basis_change(cur, pm, lam)
        steps.append(Step(kind, pm, lam, note))

    if not cur.F.is_zero():
        push("swap_xy", ScalarMatrix(field, [[0, 1], [1, 0]]), 1, "exchange f and F")
    if not cur.f.is_zero() and cur.f != 1:
        push("rescale_z", None, cur.f.inv(), "make f = 1")
    if not cur.F.is_zero():
        push("shear_y_add_x", ScalarMatrix(field, [[1, 0], [cur.F, 1]]), 1, "kill F")

    d, e, D, E = cur.d, cur.e, cur.D, cur.E
    if not cur.f.is_zero():
        if not D.is_zero():
            return JNF3DResult(
                cur,
                tuple(steps),
                False,
                "z^2 direction is not aligned with a left eigendirection "
                "of the degree-1 matrix (D cannot be removed while f = 1)",
            )
        if not e.is_zero() and d != E:
            push("gl2", ScalarMatrix(field, [[1, -e / (d - E)], [0, 1]]), 1, "diagonalize keeping f = 1")
        elif not e.is_zero() and e != 1:
            push("rescale_y", ScalarMatrix(field, [[1, 0], [0, e.inv()]]), 1, "make e = 1")
    elif not (e.is_zero() and D.is_zero() and d == E):
        try:
            res = reference_solve_quadratic(field.one(), -(d + E), d * E - e * D)
        except NestedExtension:
            return JNF3DResult(cur, tuple(steps), False, "nested field extension needed")
        except Unsupported:
            return JNF3DResult(
                cur,
                tuple(steps),
                False,
                "the eigenvalues of the degree-1 matrix lie in GF(p^2), which adjoining "
                "a square root does not reach in characteristic 2",
            )
        F2 = res.field
        if res.extended:
            cur = cur.coerced(F2)
            steps.append(Step("extend_field", None, None, f"adjoin eigenvalue field {F2}", F2))
            d, e, D, E = cur.d, cur.e, cur.D, cur.E
        if len(res.roots) == 2:
            rows = [_reference_left_eigvec(F2, d, e, D, E, lam) for lam in sorted(res.roots, key=lambda r: r.sort_key())]
        else:
            u = _reference_left_eigvec(F2, d, e, D, E, res.roots[0])
            rows = [_reference_left_generalized(F2, d, e, D, E, res.roots[0], u), u]
        push("gl2", mat2_inv(ScalarMatrix(F2, rows)), 1, "Jordan form of the degree-1 matrix")

    if cur.e.is_zero():
        if not cur.A.is_zero() and cur.A != 1:
            push("rescale_y", ScalarMatrix(cur.field, [[1, 0], [0, cur.A]]), 1, "make A = 1")
        if cur.A.is_zero() and not cur.C.is_zero() and cur.C != 1:
            push("rescale_y", ScalarMatrix(cur.field, [[1, 0], [0, cur.C.inv()]]), 1, "make C = 1")
    return JNF3DResult(cur, tuple(steps), True)


def reference_derivation_residuals(p):
    """derivation_residuals computed with Scalar operators."""
    a, b, c, d, e = p.a, p.b, p.c, p.d, p.e
    A, B, C, D, E = p.A, p.B, p.C, p.D, p.E
    one = p.field.one()
    return [
        ("x^3", A * (d - one) - a * D),
        ("x^2y", B * (d - one) + a * (one - E) + e * A - b * D),
        ("xy^2", C * (d - one) + b * (one - E) + e * B - c * D),
        ("y^3", c * (one - E) + e * C),
    ]


def _reference_ore_case(p):
    one = p.field.one()
    if p.e.is_zero():
        if p.d == one and p.E == one:
            return "1.i"
        if p.E == one:
            return "1.ii"
        if p.d == one:
            return "1.iii"
        return "1.iv"
    return "2.i" if p.d == one else "2.ii"


def _reference_reducible_case(p):
    one, two = p.field.one(), p.field.scalar(2)
    if p.e.is_zero():
        if p.C.is_zero():
            if p.E.is_zero():
                return "i"
            if p.E == one:
                return "ii"
            if p.E == -one and p.d == -one and p.B == two:
                return "iii"
            raise AssertionError(f"no reducible case matches {p}")
        if p.E.is_zero():
            return "iv"
        if p.E == -one and p.d == -one and p.B == two:
            return "v"
        raise AssertionError(f"no reducible case matches {p}")
    if p.d.is_zero():
        return "vi"
    if p.d == one:
        return "vii"
    raise AssertionError(f"no reducible case matches {p}")


def reference_reducible_residuals(p):
    """reducible_system_residuals computed with Scalar operators."""
    a, b, c, d, e = p.a, p.b, p.c, p.d, p.e
    B, C, E = p.B, p.C, p.E
    one, two = p.field.one(), p.field.scalar(2)
    return [
        ("1", E * (one - B - E)),
        ("2", E * (-d - B + d * E)),
        ("3", B * (one - d - B) - a * (one - E * E)),
        ("4", E * (C + C * E + e - e * E)),
        ("5", C * (one - d - two * B - B * E) - b * (one - E * E) - e * B),
        ("6", (one + E) * (-c * (one - E) - C * C) - e * C),
    ]


# the elliptic constraints of classify_3d, tested in this order on a ParamTuple3D
REFERENCE_ELLIPTIC_CONSTRAINTS = (
    ("e = 0", lambda q: q.e.is_zero()),
    ("d = -1", lambda q: q.d == -1),
    ("A = 1", lambda q: q.A == 1),
    ("E = -1", lambda q: q.E == -1),
    ("b = (1-a)(2-B)", lambda q: q.b == (1 - q.a) * (2 - q.B)),
)


def reference_classify_3d(p, bound=50):
    """classify_3d computed with Scalar operators, on reference_jordan_normal_form_3d."""
    jnf = reference_jordan_normal_form_3d(p)
    if not jnf.normalized:
        mismatch = twisting_axiom_mismatch(p, HILBERT_DEGREE)
        if mismatch is not None:
            m, want, got = mismatch
            return TTPType3D(
                "not_ttp", None, jnf.params, jnf.trace, None,
                Witness(
                    "hilbert_mismatch",
                    f"dim in degree {m} is {got}, a twisted tensor product needs {want}",
                    {"degree": m, "expected": want, "got": got, "obstruction": jnf.obstruction},
                ),
            )
        return TTPType3D(
            "unknown", None, jnf.params, jnf.trace, HILBERT_DEGREE,
            Witness("alignment_obstruction", jnf.obstruction or "", {}),
        )
    q = jnf.params
    if q.f.is_zero():
        bad = next(((name, v) for name, v in reference_derivation_residuals(q) if not v.is_zero()), None)
        if bad is not None:
            return TTPType3D(
                "not_ttp", None, q, jnf.trace, None,
                Witness(
                    "constraint_violated",
                    f"derivation condition fails at the {bad[0]} coefficient",
                    {"monomial": bad[0], "value": bad[1]},
                ),
            )
        return TTPType3D("ore", _reference_ore_case(q), q, jnf.trace, None)
    if second_obstruction_vanishes(q):
        report = fn_nonvanishing(q.a, q.d, bound)
        if not report.all_nonzero:
            n = report.zero_index
            return TTPType3D(
                "not_ttp", None, q, jnf.trace, None,
                Witness(
                    "fn_zero",
                    f"f_{n}(a, d) = 0: the quotient by the normal generator y "
                    "is not a twisted tensor product",
                    {"n": n, "a": q.a, "d": q.d},
                ),
            )
        for name, v in reference_reducible_residuals(q):
            assert v.is_zero(), f"vanishing obstruction but equation {name} fails"
        certified = None if report.cycle_closed else bound
        return TTPType3D("reducible", _reference_reducible_case(q), q, jnf.trace, certified)
    bad = next((name for name, holds in REFERENCE_ELLIPTIC_CONSTRAINTS if not holds(q)), None)
    if bad is not None:
        return TTPType3D(
            "not_ttp", None, q, jnf.trace, None,
            Witness("constraint_violated", f"nonzero second obstruction forces {bad}", {"constraint": bad}),
        )
    g1, g2 = degree3_overlap_elements(q)
    assert not g2.is_zero() and g1 == g2.scale(1 - q.a)
    ef = None if q.field.characteristic() == 2 else EllipticForm.from_params(q.a, q.B, q.c, q.C)
    return TTPType3D("elliptic", None, q, jnf.trace, None, elliptic_form=ef)


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
                        span.insert({index[m + w + mp]: c for w, c in r.terms.items()})
        dims.append(len(index) - span.rank)
    return dims


def euler_check(pres, betti, maxdeg):
    """Alternating Betti convolution against the Hilbert profile is delta_0."""
    dims = pres.hilbert(maxdeg)
    for m in range(maxdeg + 1):
        acc = 0
        for (i, j), b in betti.items():
            if j <= m:
                acc += (-1) ** i * b * dims[m - j]
        if acc != (1 if m == 0 else 0):
            return False
    return True


def compose_check(cx, maxdeg):
    """Every entry of every consecutive product of the complex cx reduces to zero."""
    rs = cx.pres.completed(maxdeg)
    for i in range(2, len(cx)):
        hi, mid, lo = cx.shifts[i], cx.shifts[i - 1], cx.shifts[i - 2]
        for r in range(len(hi)):
            for c in range(len(lo)):
                acc = NCPoly.zero(cx.pres.alphabet, cx.pres.field)
                for k in range(len(mid)):
                    a, b = cx.diffs[i][r][k], cx.diffs[i - 1][k][c]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + (b * a if isinstance(cx, RightComplex) else a * b)
                if acc.is_zero():
                    continue
                if acc.degree() > maxdeg:
                    raise NotCompleted(
                        f"product entry has degree {acc.degree()} > bound {maxdeg}"
                    )
                if not rs.reduce(acc).is_zero():
                    return False
    return True


class RightComplex(GradedComplex):
    """A complex of free right modules: a differential entry acts on the left of a basis word.

    Its component matrices reduce each product entry * word in the
    completed system, where a left-module complex folds the entry onto the
    word through the multiplication map.
    """

    def component_matrix(self, i, j):
        rs = self._system_for_degree(j)
        src, dst = self._basis(rs, i, j), self._basis(rs, i - 1, j)
        dst_index = {key: n for n, key in enumerate(dst)}
        field, alphabet = self.pres.field, self.pres.alphabet
        rows = [{} for _ in range(max(len(dst), 1))]
        for col, (gen, word) in enumerate(src):
            w = NCPoly(alphabet, field, {word: field.one()})
            for tgt, entry in enumerate(self.diffs[i][gen]):
                if not entry.is_zero():
                    for u, c in rs.reduce(entry * w).terms.items():
                        rows[dst_index[(tgt, u)]][col] = c
        return ScalarMatrix.from_sparse(field, rows, len(src))


def dualize(cx):
    """The contravariant dual of a left-module complex, as a RightComplex with positions reversed.

    Position 0 of the dual is the old top module with negated shifts; with
    n = len(cx) - 1, the k-th dual differential is the transposed old
    (n - k + 1)-st matrix.
    """
    n = len(cx) - 1
    shifts = [[-s for s in cx.shifts[i]] for i in range(n, -1, -1)]
    diffs = []
    for k in range(1, n + 1):
        old = cx.diffs[n - k + 1]
        diffs.append([[old[c][r] for c in range(len(cx.shifts[n - k + 1]))] for r in range(len(cx.shifts[n - k]))])
    return RightComplex(cx.pres, shifts, diffs)


def dual_complex_gorenstein(pres, res_complex, maxdeg):
    """Whether the dualized resolution res_complex of pres is exact but for one k at its end.

    The dual's homology through internal degree maxdeg, shifted by the top
    generator degree, must be a single copy of k at position 0.
    """
    assert res_complex.pres is pres
    top = max(res_complex.shifts[-1])
    homology = exactness_profile(dualize(res_complex), maxdeg=maxdeg - top, mindeg=-top)
    return homology == {(0, -top): 1}


def from_relations(alphabet, field, relations):
    """Homogeneous relations oriented and interreduced into a rule set, with no completion."""
    return _complete(alphabet, field, relations, None)[0]


def greedy_new_generators(kernel, cols, field):
    """Indices of the kernel rows that grow the span of cols, inserted one by one in order."""
    span = EchelonSpan(field)
    for col in cols:
        span.insert(col)
    return [k for k, vec in enumerate(kernel) if span.insert(vec)]


def ideal_membership(poly, pres, d):
    """Whether a homogeneous element of degree <= d lies in the relation ideal."""
    if poly.is_zero():
        return True
    if poly.degree() > d:
        raise NotCompleted(f"element has degree {poly.degree()} > completion bound {d}")
    return pres.completed(d).reduce(poly).is_zero()


def derivation_check(p):
    """Whether the quadratic data of p extends to a well-defined derivation."""
    return all(v.is_zero() for _, v in reference_derivation_residuals(p))


def substitute(p, images):
    """Image of p under the algebra map sending each letter to images[name].

    images maps letter names to NCPoly values in a common target algebra
    over p's field; letters absent from the map are sent to themselves
    (which requires the target alphabet to contain them).
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
    for w, a in p.terms.items():
        term = NCPoly(alphabet, field, {(): Scalar(p.field, a)})
        for i in w:
            term = term * vals[i]
        out = out + term
    return out


def map_coeffs(p, fn, field=None):
    """The polynomial with coefficients fn(c), a Scalar of field (default: p's field)."""
    own = p.field
    return NCPoly(p.alphabet, field or own, {w: fn(Scalar(own, a)) for w, a in p.terms.items()})


def basis_change_substitution(pres_target, pm, lam):
    """Letter images {x, y, z} -> NCPoly realizing the basis change in pres_target."""
    field = pres_target.field
    alphabet = pres_target.alphabet
    x = NCPoly.letter(alphabet, field, "x")
    y = NCPoly.letter(alphabet, field, "y")
    z = NCPoly.letter(alphabet, field, "z")
    return {
        "x": x.scale(pm[0, 0]) + y.scale(pm[0, 1]),
        "y": x.scale(pm[1, 0]) + y.scale(pm[1, 1]),
        "z": z.scale(field.scalar(lam)),
    }


def inverse_steps(trace):
    """Substitution data undoing a normalization trace (reversed order)."""
    out = []
    for step in reversed(trace):
        if step.kind == "extend_field":
            out.append(step)
            continue
        out.append(Step(step.kind + "_inv", mat2_inv(step.pm), step.lam.inv(), f"undo {step.note}"))
    return tuple(out)


def relation_phi_matrix(rel):
    """M with f = x phi(x) + z phi(z), phi read off a two-generator relation."""
    alphabet = rel.alphabet
    field = rel.field
    if len(alphabet) != 2:
        raise ValueError("expects a two-letter alphabet")
    grid = [[rel.coeff((i, j)) for j in range(2)] for i in range(2)]
    return ScalarMatrix(field, grid)


class NotCanonical(Exception):
    pass


def rigidity_check_2d(p, p2):
    """Twisted-tensor-product isomorphism is bare equality of canonical tuples."""
    for t in (p, p2):
        ok = t.c == t.field.one() or (
            t.c.is_zero() and (t.a == t.field.one() or t.a.is_zero())
        )
        if not ok:
            raise NotCanonical(f"{t} is not in canonical form")
    return p == p2


def parse_machine_block(text):
    """The key=value lines of a report's [machine] block, as a dict."""
    lines = text.splitlines()
    try:
        start = lines.index("[machine]")
        end = lines.index("[/machine]")
    except ValueError:
        raise ParseError("no machine block found")
    out = {}
    for line in lines[start + 1 : end]:
        if "=" not in line:
            raise ParseError(f"bad machine line {line!r}")
        k, v = line.split("=", 1)
        out[k] = v
    return out
