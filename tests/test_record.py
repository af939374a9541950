"""Record semantics: every value type is an immutable slotted record whose
==, hash and repr are those of the tuple of its fields, built by
Record.__init__, which fills the fields and runs the type's one check."""
import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab.cmtypes import CMPairSpec
from cmlab.galois import GaloisGroup, from_generators, weyl_full
from cmlab.hyperoct import SignedPerm
from cmlab.intlattice import IntLattice, IntMatrix
from cmlab.reciprocity import MonomialRelation
from oracles import EmbeddingLabel, relation_of_cycle, span

# small groups and pairs by recipe, so that two draws are often equal
_GROUPS = [("weyl", 1), ("weyl", 2), ("cyclic", 4, (0, 1)), ("cyclic", 4, (0, 3)), ("cyclic", 6, (0, 1, 2))]


def _group(recipe):
    return weyl_full(recipe[1]) if recipe[0] == "weyl" else CMPairSpec.from_cyclic(*recipe[1:]).group


def _spec(recipe):
    return CMPairSpec.weyl(recipe[1]) if recipe[0] == "weyl" else CMPairSpec.from_cyclic(*recipe[1:])


def _small_g(lo=1, hi=3):
    return st.integers(lo, hi)


def _signed_perm_args():
    return _small_g().flatmap(lambda g: st.tuples(
        st.just(g), st.integers(0, (1 << g) - 1), st.permutations(list(range(1, g + 1)))))


def _relation_args():
    def at(g):
        n = 1 << g
        terms = st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(
            lambda vec: tuple((i, e) for i, e in enumerate(vec) if e))
        return st.tuples(st.just(g), terms, st.integers(-1, 1))
    return _small_g(1, 2).flatmap(at)


def _rows(cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols).map(tuple), max_size=2).map(tuple)


# (record type, its fields in order, a strategy of constructor arguments,
# the constructor from those arguments)
RECORDS = [
    (EmbeddingLabel, ("index", "bar"), st.tuples(st.integers(1, 3), st.booleans()),
     lambda a: EmbeddingLabel(*a)),
    (SignedPerm, ("g", "flips", "perm"), _signed_perm_args(),
     lambda a: SignedPerm(a[0], a[1], tuple(a[2]))),
    (GaloisGroup, ("g", "gens"), st.sampled_from(_GROUPS), _group),
    (CMPairSpec, ("group", "residues"), st.sampled_from(_GROUPS), _spec),
    (IntMatrix, ("entries", "cols"), st.integers(1, 2).flatmap(lambda c: st.tuples(_rows(c), st.just(c))),
     lambda a: IntMatrix(*a)),
    (IntLattice, ("dim", "basis"), st.integers(1, 2).flatmap(lambda c: st.tuples(st.just(c), _rows(c))),
     lambda a: span(*a)),
    (MonomialRelation, ("g", "terms", "tau"), _relation_args(), lambda a: MonomialRelation(*a)),
]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, fields, args, build", RECORDS, ids=[r[0].__name__ for r in RECORDS])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_eq_hash_repr_follow_the_field_tuple(cls, fields, args, build, data):
    first = data.draw(args, label="first")
    second = data.draw(st.just(first) | args, label="second")
    x, y = build(first), build(second)
    assert type(x) is cls
    vx = tuple(getattr(x, name) for name in fields)
    vy = tuple(getattr(y, name) for name in fields)
    assert (x == y) == (vx == vy)
    assert (x != y) == (vx != vy)
    assert x != vx  # a record never equals a plain tuple
    # an unhashable field (the label dict of a cyclic group) makes both raise
    assert _hash_or_error(x) == _hash_or_error(vx)
    if vx == vy:
        assert _hash_or_error(x) == _hash_or_error(y)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, vx))
    assert repr(x) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, args, build", RECORDS, ids=[r[0].__name__ for r in RECORDS])
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_fields_cannot_be_set_or_deleted(cls, fields, args, build, data):
    x = build(data.draw(args))
    before = repr(x)
    for name in (*fields, "_fields", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == before


@pytest.mark.parametrize("cls, fields, args, build", RECORDS, ids=[r[0].__name__ for r in RECORDS])
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_a_wrong_number_of_values_is_a_type_error(cls, fields, args, build, data):
    # a programming error, never a ValueError that cli would report as a
    # refused input; a type's own __init__ may default its last fields
    x = build(data.draw(args))
    values = tuple(getattr(x, name) for name in fields)
    required = len(fields) - len(cls.__init__.__defaults__ or ())
    for wrong in (values[:required - 1], (*values, None)):
        with pytest.raises(TypeError):
            cls(*wrong)


def test_the_count_refusal_names_the_type():
    with pytest.raises(TypeError, match=r"^SignedPerm takes 3 fields, got 2$"):
        SignedPerm(2, 0)
    with pytest.raises(TypeError, match=r"^IntLattice takes 2 fields, got 3$"):
        IntLattice(1, IntMatrix((), 1), None)


@contextlib.contextmanager
def counted_checks(cls):
    """Count the runs of cls.__post_init__, wrapped on the class as
    benchmarks/tracer.py wraps it; the class is restored on exit."""
    runs = []
    own = vars(cls).get("__post_init__")
    original = cls.__post_init__

    def post_init(self):
        runs.append(self)
        original(self)

    cls.__post_init__ = post_init
    try:
        yield runs
    finally:
        if own is None:
            del cls.__post_init__
        else:
            cls.__post_init__ = own


@pytest.mark.parametrize("cls, fields, args, build", RECORDS, ids=[r[0].__name__ for r in RECORDS])
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_the_check_runs_once_per_construction(cls, fields, args, build, data):
    first = data.draw(args)
    with counted_checks(cls) as runs:
        x = build(first)
    assert len(runs) == 1 and runs[0] is x


@pytest.mark.parametrize("cls, build", [
    (SignedPerm, lambda: SignedPerm.make(3, [1], [2, 3, 1])),
    (IntMatrix, lambda: IntMatrix.from_rows([[1, 2], [3, 4]], 2)),
    (CMPairSpec, lambda: CMPairSpec.from_cyclic(6, (0, 1, 2))),
    (GaloisGroup, lambda: CMPairSpec.from_cyclic(6, (0, 1, 2))),
    (MonomialRelation, lambda: MonomialRelation.from_vec(2, (1, 0, 0, -1))),
])
def test_a_factory_runs_the_check_once(cls, build):
    with counted_checks(cls) as runs:
        build()
    assert len(runs) == 1


def test_repr_matches_the_earlier_field_form():
    assert repr(SignedPerm.make(2, [1], [2, 1])) == "SignedPerm(g=2, flips=1, perm=(2, 1))"
    assert repr(EmbeddingLabel(2)) == "EmbeddingLabel(index=2, bar=False)"


def test_hot_records_have_no_instance_dict():
    for x in (SignedPerm.make(2, [1], [2, 1]), weyl_full(2).elements[5]):
        assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("build, message", [
    (lambda: SignedPerm(2, 4, (1, 2)), "flips mask 0x4 has indices outside 1..2"),
    (lambda: SignedPerm(2, 0, (1, 1)), "perm (1, 1) is not a bijection of 1..2"),
    (lambda: from_generators(2, [SignedPerm.make(2)]), "conjugation not in group"),
    # checked before the closure reads a generator's perm at every point of 1..g
    (lambda: from_generators(3, [SignedPerm.make(2, [1, 2])]), "generator has g=2, expected 3"),
    (lambda: GaloisGroup(2, (SignedPerm.make(2), SignedPerm.make(2, [1, 2]))),
     "image in S_2 is not transitive (reaches only [1])"),
    # relation_of_cycle, an oracle no command reaches, checks a cycle's slots
    # to protect its own callers in the tests
    (lambda: relation_of_cycle((-1,), 2), "copy index 0 out of range"),
    (lambda: relation_of_cycle((0, 0), 2), "slots must be strictly increasing (distinct slots)"),
    (lambda: IntMatrix(((1, 2), (3,)), 2), "ragged matrix"),
    (lambda: MonomialRelation(2, ((4, 1),)), "an index lies outside 0..3"),
    (lambda: MonomialRelation.from_vec(2, (0, 0, 0)), "vec has 3 entries, expected 2^2 = 4"),
])
def test_constructor_validation_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
