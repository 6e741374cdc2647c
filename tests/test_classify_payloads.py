"""The three-generator classification on payloads, held to its Scalar form.

``classify.jordan_normal_form_3d``, ``families.apply_basis_change`` and
``classify.classify_3d`` compute on the twelve coefficient payloads;
``reference_jordan_normal_form_3d``, ``reference_apply_basis_change`` and
``reference_classify_3d`` in helpers compute the same with Scalar
operators.  Seeded tuples over seven fields must give equal results, field
by field and step by step, and deciding a GF(p) tuple must box no more
than the normal form, the trace and the witness it returns.
"""

import random
from fractions import Fraction

from helpers import (
    is_payload,
    reference_apply_basis_change,
    reference_classify_3d,
    reference_jordan_normal_form_3d,
)

from ttpkit.classify import JNF3DResult, Step, TTPType3D, classify_3d, jordan_normal_form_3d
from ttpkit.families import PARAM_NAMES_3D, ParamTuple3D, apply_basis_change
from ttpkit.scalars import QQ, PrimeField, QuadExtField, ScalarMatrix

FIELDS = (
    PrimeField(2),
    PrimeField(3),
    PrimeField(7),
    PrimeField(32003),
    QQ,
    QuadExtField(QQ, 2),
    QuadExtField(PrimeField(7), 3),
)
TUPLES_PER_FIELD = 300
UNNORMALIZED_DECIDED = 8  # per field


def _draw(rng, field):
    """A coefficient: often 0, 1, -1 or 2, else a random element (with a root part in an extension)."""
    r = rng.random()
    if r < 0.35:
        return field.zero()
    if r < 0.5:
        return field.one()
    if r < 0.6:
        return -field.one()
    if r < 0.65:
        return field.scalar(2)
    base = field.base if isinstance(field, QuadExtField) else field

    def element():
        if isinstance(base, PrimeField):
            return base.scalar(rng.randrange(base.p))
        return base.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    if base is field:
        return element()
    return field.embed(element()) + field.embed(element()) * field.root()


def _invertible(rng, field):
    while True:
        pm = ScalarMatrix(field, [[_draw(rng, field) for _ in range(2)] for _ in range(2)])
        if not pm.det().is_zero():
            return pm


def _draw_tuple(rng, field):
    """A seeded tuple, weighted towards the branches of the normalization.

    Shapes, by the degree-1 matrix [[d, e], [D, E]]: with f = F = 0, the
    rotation [[x, 1], [-1, x]], whose eigenvalues need sqrt(-1);
    [[x, 1], [1, x + 1]], whose eigenvalues need sqrt(5) and lie in GF(4)
    over GF(2); a Jordan block [[x, y], [0, x]] with y != 0; then f = 1 with
    D != 0, which cannot be aligned; and random tuples.  Half are then
    carried by a random change of basis.
    """
    kw = {k: _draw(rng, field) for k in PARAM_NAMES_3D}
    zero, one = field.zero(), field.one()
    x = kw["d"]
    shape = rng.randrange(5)
    if shape == 0:
        kw.update(f=zero, F=zero, E=x, e=one, D=-one)
    elif shape == 1:
        kw.update(f=zero, F=zero, E=x + one, e=one, D=one)
    elif shape == 2:
        kw.update(f=zero, F=zero, E=x, D=zero, e=kw["e"] if not kw["e"].is_zero() else one)
    elif shape == 3:
        kw.update(f=one, F=zero, D=kw["D"] if not kw["D"].is_zero() else one)
    p = ParamTuple3D(**kw)
    if rng.randrange(2):
        pm, lam = _invertible(rng, field), _draw(rng, field)
        lam = lam if not lam.is_zero() else one
        q = reference_apply_basis_change(p, pm, lam)
        assert apply_basis_change(p, pm, lam) == q
        p = q
    return p


# the obstructions of jordan_normal_form_3d, by the start of their text
OBSTRUCTIONS = {
    "z^2 direction": "alignment",  # f != 0 and D != 0
    "nested field": "nested_extension",
    "the eigenvalues": "char2_unsupported",  # eigenvalues in GF(4) over GF(2)
}


def _branch(jnf):
    """The normalization branch the result shows, or None for one of no interest here."""
    if any(step.kind == "extend_field" for step in jnf.trace):
        return "extension"
    if not jnf.normalized:
        return next(name for start, name in OBSTRUCTIONS.items() if jnf.obstruction.startswith(start))
    q = jnf.params
    if q.f.is_zero() and q.e == 1:
        return "nilpotent_jordan_block"
    return None


def _assert_same(got, want, fields, p):
    assert type(got) is type(want)
    for name in fields:
        assert getattr(got, name) == getattr(want, name), (name, p)
    assert len(got.trace) == len(want.trace), p
    for s, t in zip(got.trace, want.trace):
        for name in Step._fields:
            assert getattr(s, name) == getattr(t, name), (name, p)
    assert repr(got) == repr(want), p


def test_payload_classification_matches_the_scalar_reference():
    rng = random.Random(38)
    branches = {}
    for field in FIELDS:
        unnormalized = 0
        for _ in range(TUPLES_PER_FIELD):
            p = _draw_tuple(rng, field)
            got, want = jordan_normal_form_3d(p), reference_jordan_normal_form_3d(p)
            _assert_same(got, want, JNF3DResult._fields, p)
            q = got.params
            assert all(is_payload(q.field, x.payload) for x in q), p
            branches.setdefault(_branch(got), set()).add(str(field))
            # a tuple that does not normalize is decided by the dimension
            # test, one completion to degree 4 on either side: a few suffice
            unnormalized += not got.normalized
            if got.normalized or unnormalized <= UNNORMALIZED_DECIDED:
                _assert_same(classify_3d(p), reference_classify_3d(p), TTPType3D._fields, p)
    # the rotation's extension over each field that has one; in Q(sqrt(2))
    # the eigenvalues need a second extension, and over GF(2) they lie in GF(4)
    every = {str(field) for field in FIELDS}
    assert branches["extension"] == {"GF(3)", "GF(7)", "GF(32003)", "Q"}
    assert branches["nested_extension"] == {"Q(sqrt(2))"}
    assert branches["char2_unsupported"] == {"GF(2)"}
    assert branches["nilpotent_jordan_block"] == every
    assert branches["alignment"] == every


def _count_scalars(monkeypatch, fn, *args):
    """fn(*args) and the payloads of the Scalars built while it ran."""
    from ttpkit.scalars import Scalar

    built = []
    init = Scalar.__init__

    def spy_init(self, field, payload):
        built.append(payload)
        init(self, field, payload)

    with monkeypatch.context() as m:
        m.setattr(Scalar, "__init__", spy_init)
        out = fn(*args)
    return out, built


def test_deciding_a_tuple_boxes_only_what_it_returns(monkeypatch):
    # over GF(32003): an already-normalized tuple is its own normal form, so
    # deciding it boxes at most its witness's value: an Ore tuple with
    # distinct eigenvalues (the eigenvalue solve runs and changes nothing),
    # one that fails the derivation check at y^3, and a reducible one.  With
    # x and y exchanged, one gl2 step takes the Ore tuple back, and the
    # decision boxes the twelve coefficients of the normal form and the
    # step's z-scale
    field = PrimeField(32003)
    ore = ParamTuple3D.make(field, d=2, E=3, B=4, C=1, a=2, b=Fraction(1, 2))
    cases = [
        (ore, "ore", 0, 0),
        (ore._replace(c=field.one()), "not_ttp", 0, 1),
        (ParamTuple3D.make(field, f=1, a=2, d=3, E=1, b=1, c=1), "reducible", 0, 0),
        (apply_basis_change(ore, ScalarMatrix(field, [[0, 1], [1, 0]]), 1), "ore", 1, 13),
    ]
    for p, kind, steps, most in cases:
        t, built = _count_scalars(monkeypatch, classify_3d, p)
        assert t.kind == kind and len(t.trace) == steps
        assert len(built) <= most, (p, built)
