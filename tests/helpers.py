"""Shared reference data for tests.

The two degree-3 obstruction elements of the three-generator family have
hand-checked coefficient expansions; freezing them here gives the rewrite
engine an independent target to reproduce at arbitrary specializations.
``reference_reduce`` is a direct rewriting loop that the table-driven
``RewriteSystem.reduce`` must agree with on any rule set.
"""

from types import SimpleNamespace

from ttpkit.freealg import NCPoly


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


def assert_poly_matches(poly, expected):
    """Compare an NCPoly against a word-string -> Scalar coefficient table."""
    alphabet = poly.alphabet
    want = {alphabet.word(w): c for w, c in expected.items() if not c.is_zero()}
    assert poly.terms == want, f"got {poly}, want {want}"


def reference_reduce(p, rules):
    """Normal form of p by direct rewriting; a slow test oracle.

    Each step re-sorts the terms and rewrites the order-largest reducible
    word at its leftmost redex, with the first rule that matches there.
    """
    alphabet = p.alphabet
    terms = dict(p.terms)
    while True:
        target = None
        for w in sorted(terms, key=alphabet.sort_key, reverse=True):
            target = next(
                (
                    (w, pos, rule)
                    for pos in range(len(w))
                    for rule in rules
                    if w[pos : pos + len(rule.high)] == rule.high
                ),
                None,
            )
            if target is not None:
                break
        if target is None:
            break
        w, pos, rule = target
        c = terms.pop(w)
        u, v = w[:pos], w[pos + len(rule.high) :]
        for tw, tc in rule.tail.terms.items():
            nw = u + tw + v
            s = tc * c if nw not in terms else terms[nw] + tc * c
            if s.is_zero():
                terms.pop(nw, None)
            else:
                terms[nw] = s
    return NCPoly(p.alphabet, p.field, terms)
