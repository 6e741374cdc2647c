import random

import pytest
from helpers import substitute

from ttpkit.freealg import (
    Alphabet,
    AlphabetMismatch,
    NCPoly,
    ZeroPolynomial,
    parse_poly,
    poly_str,
)
from ttpkit.scalars import QQ, PrimeField, QuadExtField

XZ = Alphabet(["x", "z"])
YXZ = Alphabet(["y", "x", "z"])


def P(text, alphabet=YXZ, field=QQ):
    return parse_poly(alphabet, field, text)


def test_free_product_concatenates():
    assert P("zx", XZ) * P("z", XZ) == P("zxz", XZ)
    assert (P("x") + P("y")) * (P("x") - P("y")) == P("x^2 - xy + yx - y^2")
    assert P("x").scale(0).is_zero()


def test_addition_cancels():
    p = P("zx - x^2") + P("x^2 - zx")
    assert p.is_zero()


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        P("x", XZ) + P("x", YXZ)


def test_leading_term_deg_left_lex():
    # y < x < z: the z^2 word beats every other quadratic word
    p = P("zx - 2x^2 - 3xz - z^2")
    w, c = p.leading_term()
    assert YXZ.word_str(w) == "z^2" and c == QQ.scalar(-1)
    # under x < z, zxz beats zx^2, x^2z, x^3
    g = P("2zxz + 3zx^2 - x^2z + x^3", XZ)
    w, c = g.leading_term()
    assert XZ.word_str(w) == "zxz" and c == QQ.scalar(2)
    with pytest.raises(ZeroPolynomial):
        NCPoly.zero(XZ, QQ).leading_term()


def test_order_is_multiplicative():
    rng = random.Random(23)
    for _ in range(200):
        u = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        a = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
        b = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
        if YXZ.sort_key(u) < YXZ.sort_key(v):
            assert YXZ.sort_key(a + u + b) < YXZ.sort_key(a + v + b)


def test_leading_word_of_product():
    rng = random.Random(29)
    for _ in range(50):
        words_p = {tuple(rng.randrange(3) for _ in range(rng.randint(1, 3))) for _ in range(3)}
        words_q = {tuple(rng.randrange(3) for _ in range(rng.randint(1, 3))) for _ in range(3)}
        p = NCPoly(YXZ, QQ, {w: 1 for w in words_p})
        q = NCPoly(YXZ, QQ, {w: 1 for w in words_q})
        pq = p * q
        if pq.is_zero():
            continue
        assert pq.leading_term()[0] == p.leading_term()[0] + q.leading_term()[0]


def test_weighted_degree():
    A = Alphabet(["w", "x", "y", "r"], weights=(1, 1, 1, 3))
    p = NCPoly.word(A, QQ, "r")
    q = NCPoly.word(A, QQ, "xyw")
    assert p.degree() == 3 == q.degree()
    # r > xyw at equal weighted degree because r is the larger letter
    assert (p + q).leading_term()[0] == A.word("r")


def test_substitute_identity_and_homomorphism():
    p = P("zxz - 2x^2z + y^3")
    assert substitute(p, {}) == p
    images = {
        "x": P("x - y"),
        "y": P("y"),
        "z": P("z + x"),
    }
    q = P("zx - x^2")
    r = P("z - x")
    assert substitute(q * r, images) == substitute(q, images) * substitute(r, images)
    assert substitute(q + r, images) == substitute(q, images) + substitute(r, images)


def test_substitute_rescale_gives_normalized_family():
    # z -> z/c turns zx - a x^2 - b xz - c z^2 into (1/c)(zx - ac x^2 - b xz - z^2)
    field = QQ
    a, b, c = field.scalar(3), field.scalar(5), field.scalar(2)
    rel = parse_poly(XZ, field, "zx - 3x^2 - 5xz - 2z^2")
    image = substitute(rel, {"z": NCPoly.letter(XZ, field, "z").scale(c.inv())})
    expect = parse_poly(XZ, field, "zx - 6x^2 - 5xz - z^2").scale(c.inv())
    assert image == expect


def test_parse_poly_and_str_round_trip():
    rng = random.Random(31)
    for field in (QQ, PrimeField(7), QuadExtField(QQ, 2)):
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
                if isinstance(field, QuadExtField):
                    c = field.scalar(rng.randint(-5, 5)) + field.root() * field.scalar(rng.randint(-2, 2))
                else:
                    c = field.scalar(rng.randint(-9, 9))
                if not c.is_zero():
                    terms[w] = c
            p = NCPoly(YXZ, field, terms)
            assert parse_poly(YXZ, field, poly_str(p)) == p


def test_parse_poly_specifics():
    p = P("1/2 zxz - z^2")
    assert p.coeff("zxz") == QQ.scalar(1) / 2
    assert p.coeff("zz") == QQ.scalar(-1)
    assert P("x^3").coeff("xxx") == QQ.one()
    multi = Alphabet(["chi", "nu", "omega"])
    q = parse_poly(multi, QQ, "chi*nu + 2omega^2")
    assert q.coeff(multi.word("chinu")) == QQ.one()
    assert poly_str(q) == "2omega^2 + chi*nu"
