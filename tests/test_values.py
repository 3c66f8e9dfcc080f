"""The value classes' semantics: equality, hashing, repr, immutability, signature.

Every class below is compared by the fields it names, in order, and only
against an instance of the very same class; the hashable ones hash as the
tuple of those fields.  All but ``CountAccumulator`` refuse assignment and
deletion after construction.  ``repr`` prints ``Name(field=value, ...)``.
"""

import pytest

from gramsem.benchmark import TwoSenseBenchmark
from gramsem.composition import LexicalSemantics, SentenceMeaning, SentenceSpace
from gramsem.corpus import CountAccumulator, TripleRecord
from gramsem.evaluation import ExperimentReport, ModelScore, SentencePair
from gramsem.pregroup import AtomicType, Lexicon, PregroupType, ReductionResult
from gramsem.vectorspace import BasisRegistry, SemTensor, WeightedVector

SPACE = BasisRegistry("N", ("x-a", "x-b"))
OTHER = BasisRegistry("M", ("x-a", "x-b"))
SPACE_REPR = "BasisRegistry(name='N', labels=('x-a', 'x-b'), kind='plain')"
N, NR, S = AtomicType("n"), AtomicType("n", 1), AtomicType("s")
N_REPR = "AtomicType(base='n', adjoint_order=0)"
NR_REPR = "AtomicType(base='n', adjoint_order=1)"
S_REPR = "AtomicType(base='s', adjoint_order=0)"
NOUN = PregroupType((N,))
VECTOR = WeightedVector(SPACE, {0: 1.0})
VECTOR_REPR = f"WeightedVector(space={SPACE_REPR}, entries={{0: 1.0}})"
DIAGONAL = SemTensor(SPACE, 1, {(1,): 2.0})
DIAGONAL_REPR = f"SemTensor(space={SPACE_REPR}, order=1, entries={{(1,): 2.0}})"
SCORE = ModelScore(0.5, 0.25, 0.1)
SCORE_REPR = "ModelScore(mean_high=0.5, mean_low=0.25, rho=0.1)"
PAIR = SentencePair("p1", ("dog", "run"), ("cat", "run"), 7.0, "HIGH")
PAIR_REPR = (
    "SentencePair(pair_id='p1', sentence_1=('dog', 'run'), sentence_2=('cat', 'run'), "
    "gold_rating=7.0, tag='HIGH')"
)
TRIPLE = TripleRecord("dog", "chase", "cat")
TRIPLE_REPR = "TripleRecord(subject='dog', verb='chase', obj='cat', iobj=None)"
LEXICON = Lexicon({"dog": (NOUN,)})
LEXICON_REPR = f"Lexicon(entries={{'dog': (PregroupType(atoms=({N_REPR},)),)}})"
SEMANTICS = LexicalSemantics(SPACE, {"dog": VECTOR}, {"run": DIAGONAL})
SEMANTICS_REPR = (
    f"LexicalSemantics(space={SPACE_REPR}, vectors={{'dog': {VECTOR_REPR}}}, "
    f"tensors={{'run': {DIAGONAL_REPR}}})"
)


class Case:
    """One class: keyword arguments in signature order, the compared fields
    (``fields``, default the arguments), its repr, the defaults, and changes
    that each make an unequal value."""

    def __init__(self, cls, kwargs, text, changes, *, fields=None, defaults=(), hashable=True):
        self.cls, self.kwargs, self.text, self.changes = cls, kwargs, text, changes
        self.fields = fields or tuple(kwargs)
        self.defaults = dict(defaults)
        self.hashable = hashable

    def make(self, **changes):
        return self.cls(**{**self.kwargs, **changes})


CASES = {
    "BasisRegistry": Case(
        BasisRegistry,
        {"name": "N", "labels": ("x-a", "x-b"), "kind": "plain"},
        SPACE_REPR,
        [{"name": "M"}, {"labels": ("x-a", "x-c")}, {"kind": "structured"}],
        defaults={"kind": "plain"},
    ),
    "WeightedVector": Case(
        WeightedVector,
        {"space": SPACE, "entries": {0: 1.0}},
        VECTOR_REPR,
        [{"space": OTHER}, {"entries": {1: 1.0}}, {"entries": {0: 2.0}}],
        hashable=False,
    ),
    "SemTensor": Case(
        SemTensor,
        {"space": SPACE, "order": 1, "entries": {(1,): 2.0}},
        DIAGONAL_REPR,
        [{"space": OTHER}, {"entries": {(0,): 2.0}}],
        hashable=False,
    ),
    "SemTensor-empty": Case(
        SemTensor,
        {"space": SPACE, "order": 2, "entries": {}},
        f"SemTensor(space={SPACE_REPR}, order=2, entries={{}})",
        [{"order": 3}, {"order": 1}],
        hashable=False,
    ),
    "AtomicType": Case(
        AtomicType,
        {"base": "n", "adjoint_order": 1},
        NR_REPR,
        [{"base": "s"}, {"adjoint_order": -1}],
        defaults={"adjoint_order": 0},
    ),
    "PregroupType": Case(
        PregroupType,
        {"atoms": (N, NR)},
        f"PregroupType(atoms=({N_REPR}, {NR_REPR}))",
        [{"atoms": (N,)}, {"atoms": (NR, N)}],
        defaults={"atoms": ()},
    ),
    "Lexicon": Case(
        Lexicon,
        {"entries": {"dog": (NOUN,)}},
        LEXICON_REPR,
        [{"entries": {"cat": (NOUN,)}}, {"entries": {"dog": (PregroupType((S,)),)}}],
        hashable=False,
    ),
    "ReductionResult": Case(
        ReductionResult,
        {"atoms": (N, NR, S), "links": ((0, 1),)},
        f"ReductionResult(atoms=({N_REPR}, {NR_REPR}, {S_REPR}), links=((0, 1),), "
        f"residual=PregroupType(atoms=({S_REPR},)))",
        [{"atoms": (N, NR, N)}, {"links": ()}],
        fields=("atoms", "links", "residual"),
    ),
    "TripleRecord": Case(
        TripleRecord,
        {"subject": "dog", "verb": "chase", "obj": "cat", "iobj": "bone"},
        "TripleRecord(subject='dog', verb='chase', obj='cat', iobj='bone')",
        [{"subject": "cat"}, {"verb": "bite"}, {"obj": "rat"}, {"iobj": None}],
        defaults={"obj": None, "iobj": None},
    ),
    "CountAccumulator": Case(
        CountAccumulator,
        {"space": SPACE, "counts": {"dog": {0: 2}}, "doc_frequency": {0: 1}, "doc_count": 3},
        f"CountAccumulator(space={SPACE_REPR}, counts={{'dog': {{0: 2}}}}, "
        "doc_frequency={0: 1}, doc_count=3)",
        [{"space": OTHER}, {"counts": {"dog": {0: 3}}}, {"doc_frequency": {}}, {"doc_count": 2}],
        defaults={"counts": {}, "doc_frequency": {}, "doc_count": 0},
        hashable=False,
    ),
    "SentenceMeaning": Case(
        SentenceMeaning,
        {"value": DIAGONAL, "sentence_space": SentenceSpace.N},
        f"SentenceMeaning(value={DIAGONAL_REPR}, sentence_space=<SentenceSpace.N: 'N'>)",
        [{"value": SemTensor(SPACE, 1, {(0,): 2.0})}, {"sentence_space": SentenceSpace.TRUTH}],
        hashable=False,
    ),
    "LexicalSemantics": Case(
        LexicalSemantics,
        {"space": SPACE, "vectors": {"dog": VECTOR}, "tensors": {"run": DIAGONAL}},
        SEMANTICS_REPR,
        [{"vectors": {}}, {"tensors": {}}],
        hashable=False,
    ),
    "LexicalSemantics-empty": Case(
        LexicalSemantics,
        {"space": SPACE, "vectors": {}, "tensors": {}},
        f"LexicalSemantics(space={SPACE_REPR}, vectors={{}}, tensors={{}})",
        [{"space": OTHER}],
        hashable=False,
    ),
    "SentencePair": Case(
        SentencePair,
        {
            "pair_id": "p1", "sentence_1": ("dog", "run"), "sentence_2": ("cat", "run"),
            "gold_rating": 7.0, "tag": "HIGH",
        },
        PAIR_REPR,
        [
            {"pair_id": "p2"}, {"sentence_1": ("cat", "run")}, {"sentence_2": ("dog", "run")},
            {"gold_rating": 1.0}, {"tag": "LOW"},
        ],
        defaults={"gold_rating": None, "tag": None},
    ),
    "ModelScore": Case(
        ModelScore,
        {"mean_high": 0.5, "mean_low": 0.25, "rho": 0.1},
        SCORE_REPR,
        [{"mean_high": 0.6}, {"mean_low": 0.2}, {"rho": -0.1}],
    ),
    "ExperimentReport": Case(
        ExperimentReport,
        {"scores": {"add": SCORE}},
        f"ExperimentReport(scores={{'add': {SCORE_REPR}}})",
        [{"scores": {"multiply": SCORE}}, {"scores": {"add": ModelScore(0.5, 0.25, 0.2)}}],
        hashable=False,
    ),
    "TwoSenseBenchmark": Case(
        TwoSenseBenchmark,
        {
            "space": SPACE, "grammar": LEXICON, "lex": SEMANTICS, "dataset": [PAIR],
            "documents": [["dog", "x-a"]], "triples": [TRIPLE],
        },
        f"TwoSenseBenchmark(space={SPACE_REPR}, grammar={LEXICON_REPR}, lex={SEMANTICS_REPR}, "
        f"dataset=[{PAIR_REPR}], documents=[['dog', 'x-a']], triples=[{TRIPLE_REPR}])",
        [
            {"space": OTHER}, {"grammar": Lexicon({})}, {"lex": LexicalSemantics(SPACE, {}, {})},
            {"dataset": []}, {"documents": []}, {"triples": []},
        ],
        hashable=False,
    ),
}
FROZEN = [name for name, case in CASES.items() if case.cls is not CountAccumulator]
parametrize = pytest.mark.parametrize("name", list(CASES))


def field_values(value, case):
    return tuple(getattr(value, field) for field in case.fields)


@parametrize
def test_repr_names_the_class_and_each_field(name):
    case = CASES[name]
    assert repr(case.make()) == case.text


@parametrize
def test_equal_fields_are_equal_values(name):
    case = CASES[name]
    a, b = case.make(), case.make()
    assert a is not b
    assert a == b and not a != b
    assert a == a and not a != a


@parametrize
def test_each_compared_field_tells_values_apart(name):
    case = CASES[name]
    base = case.make()
    for change in case.changes:
        other = case.make(**change)
        assert base != other and not base == other, change
        assert other != base and not other == base, change


@parametrize
def test_a_value_equals_no_other_class(name):
    case = CASES[name]
    value = case.make()
    fields = field_values(value, case)
    assert case.cls.__eq__(value, fields) is NotImplemented
    assert value != fields and not value == fields
    assert fields != value and not fields == value

    class Sub(case.cls):
        pass

    same_fields = Sub(**case.kwargs)
    assert field_values(same_fields, case) == fields
    assert value != same_fields and not value == same_fields
    assert same_fields != value and not same_fields == value


@parametrize
def test_hash_is_the_hash_of_the_compared_fields(name):
    case = CASES[name]
    value = case.make()
    if case.cls is CountAccumulator:
        assert case.cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(value)
    elif case.hashable:
        assert hash(value) == hash(field_values(value, case))
        assert hash(value) == hash(case.make())
        assert len({value, case.make()}) == 1
    else:  # the fields hold a dict or a list
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_refuse_assignment_and_deletion(name):
    case = CASES[name]
    value = case.make()
    before = repr(value)
    for attr in (*case.fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
            delattr(value, attr)
    assert repr(value) == before
    assert not hasattr(value, "extra")


def test_count_accumulator_is_mutable_and_owns_fresh_dicts():
    a, b = CountAccumulator(SPACE), CountAccumulator(SPACE)
    assert a.counts is not b.counts and a.doc_frequency is not b.doc_frequency
    a.bump("dog", 0)
    a.doc_count += 1
    a.doc_frequency[0] = 1
    assert b.counts == {} and b.doc_frequency == {} and b.doc_count == 0
    assert a.counts == {"dog": {0: 1}} and a.doc_count == 1
    counts = {"cat": {1: 2}}
    assert CountAccumulator(SPACE, counts).counts is counts
    a.space = OTHER
    assert a.space is OTHER


@parametrize
def test_signature_keywords_positions_and_defaults(name):
    case = CASES[name]
    value = case.make()
    assert case.cls(*case.kwargs.values()) == value
    required = [key for key in case.kwargs if key not in case.defaults]
    least = case.cls(**{key: case.kwargs[key] for key in required})
    for key, default in case.defaults.items():
        assert getattr(least, key) == default
    for key in required:
        with pytest.raises(TypeError):
            case.cls(**{k: v for k, v in case.kwargs.items() if k != key})
    with pytest.raises(TypeError):
        case.cls(*case.kwargs.values(), None)
    with pytest.raises(TypeError):
        case.cls(**case.kwargs, extra=None)


def test_derived_fields_are_not_arguments():
    with pytest.raises(TypeError):
        BasisRegistry("N", ("x-a",), "plain", {"x-a": 0})
    with pytest.raises(TypeError):
        BasisRegistry("N", ("x-a",), _index={"x-a": 0})
    with pytest.raises(TypeError):
        ReductionResult((S,), (), PregroupType((S,)))
    with pytest.raises(TypeError):
        ReductionResult((S,), (), residual=PregroupType((S,)))


def test_basis_equality_and_hash_ignore_the_index():
    a, b = BasisRegistry("N", ("x-a", "x-b")), BasisRegistry("N", ("x-a", "x-b"))
    object.__setattr__(b, "_index", {})
    assert a == b and hash(a) == hash(b)
    assert "_index" not in repr(b)


def test_constructors_normalise_as_before():
    assert PregroupType([N, NR]) == PregroupType((N, NR))
    assert PregroupType([N]).atoms == (N,)
    pair = SentencePair("p", ["dog", "run"], ["cat", "run"])
    assert pair.sentence_1 == ("dog", "run") and pair.sentence_2 == ("cat", "run")
    assert BasisRegistry("N", ["x-a"]).labels == ("x-a",)
    vectors, tensors = {"dog": VECTOR}, {"run": DIAGONAL}
    semantics = LexicalSemantics(SPACE, vectors, tensors)
    assert semantics.vectors == vectors and semantics.vectors is not vectors
    assert semantics.tensors == tensors and semantics.tensors is not tensors
    assert WeightedVector(SPACE, {0: 1, 1: 0.0}).entries == {0: 1.0}
    assert Lexicon({"dog": [NOUN]}).entries == {"dog": (NOUN,)}
    scores = {"add": SCORE}
    assert ExperimentReport(scores).scores is scores
