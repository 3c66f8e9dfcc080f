"""Property tests: one sparse type for orders 1-3.

A vector is an order-1 ``SemTensor`` keyed by basis index, the same kind of
value as an intransitive verb's or a diagonal adjective's tensor.  These
tests check that the two constructors build that one type, that the
operations take a noun vector and an order-1 tensor alike, that orders
still may not mix, and that an argument or vector of another order is
refused at the API.  The arity-1 contraction is checked against its
definitional loop, entry order included, by
``tests/test_contract.py::test_contract_equals_the_definitional_loop``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramsem.composition import (
    LexicalSemantics,
    compose_adjective,
    compose_transitive,
    contract,
)
from gramsem.corpus import build_intransitive_tensor
from gramsem.errors import CompositionError, SpaceMismatchError
from gramsem.vectorspace import (
    BasisRegistry,
    SemTensor,
    WeightedVector,
    add,
    cosine,
    inner,
    kronecker,
    load_tensor,
    load_vectors,
    pointwise_mul,
    save_tensor,
    save_vectors,
)

SPACES = [BasisRegistry(f"d{d}", tuple("abcd"[:d])) for d in range(1, 5)]
# No weight below 1e-3 in size but 0, so no squared weight underflows and
# cosine is the plain quotient.
WEIGHTS = st.one_of(
    st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
    st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3),
)
SETTINGS = settings(max_examples=100, deadline=None)


def entries(draw, space, **size):
    keys = st.integers(min_value=0, max_value=len(space) - 1)
    return draw(st.dictionaries(keys, WEIGHTS, max_size=len(space), **size))


def matrix(draw, space):
    keys = st.tuples(*[st.integers(min_value=0, max_value=len(space) - 1)] * 2)
    return SemTensor(space, 2, draw(st.dictionaries(keys, WEIGHTS, min_size=1, max_size=8)))


@SETTINGS
@given(st.data(), st.sampled_from(SPACES))
def test_both_constructors_build_one_value(data, space):
    weights = entries(data.draw, space)
    vector = WeightedVector(space, weights)
    tensor = SemTensor(space, 1, {(i,): w for i, w in weights.items()})
    assert type(vector) is SemTensor and type(tensor) is SemTensor
    assert vector == tensor and vector.order == 1
    assert vector.entries == {i: float(w) for i, w in weights.items() if w}
    assert all(type(i) is int for i in vector.entries)
    label = space.labels[data.draw(st.integers(0, len(space) - 1))]
    basis = WeightedVector.basis_vector(space, label)
    assert type(basis) is SemTensor
    assert basis == SemTensor(space, 1, {(space.index(label),): 1.0})
    assert basis.labelled() == {label: 1.0}


@SETTINGS
@given(st.data(), st.sampled_from(SPACES))
def test_a_noun_vector_meets_an_intransitive_verb(data, space):
    # a noun's vector and the order-1 tensor of a verb built from subjects
    noun = WeightedVector(space, entries(data.draw, space))
    subjects = [WeightedVector(space, entries(data.draw, space)) for _ in range(3)]
    verb = build_intransitive_tensor(subjects, space=space)
    shared = sorted(noun.entries.keys() & verb.entries.keys())
    expected = sum(noun.entries[i] * verb.entries[i] for i in shared)
    assert inner(noun, verb) == inner(verb, noun) == expected
    total = dict(noun.entries)
    for i, w in verb.entries.items():
        total[i] = total.get(i, 0.0) + w
    assert add(noun, verb) == SemTensor(space, 1, {(i,): w for i, w in total.items()})
    score = cosine(noun, verb)
    assert -1.0 <= score <= 1.0
    if noun.entries and verb.entries and noun.entries != verb.entries:
        lengths = [math.sqrt(sum(w * w for _, w in sorted(v.entries.items())))
                   for v in (noun, verb)]
        assert score == max(-1.0, min(1.0, expected / (lengths[0] * lengths[1])))


@SETTINGS
@given(st.data(), st.sampled_from(SPACES))
def test_order_one_and_order_two_do_not_mix(data, space):
    vector = WeightedVector(space, entries(data.draw, space))
    other = matrix(data.draw, space)
    for operation in (inner, cosine, add, pointwise_mul):
        with pytest.raises(SpaceMismatchError, match="orders differ: 1 vs 2"):
            operation(vector, other)
        with pytest.raises(SpaceMismatchError, match="orders differ: 2 vs 1"):
            operation(other, vector)


@SETTINGS
@given(st.data(), st.sampled_from(SPACES))
def test_an_argument_of_another_order_is_refused(data, space):
    noun = WeightedVector(space, entries(data.draw, space, min_size=1))
    square = matrix(data.draw, space)
    diagonal = build_intransitive_tensor([noun], space=space)
    for compose in (
        lambda: compose_transitive(square, square, noun),
        lambda: compose_transitive(noun, square, square),
        lambda: contract(diagonal, square),
        lambda: contract(kronecker(noun, noun, noun), noun, noun, square),
        lambda: compose_adjective(diagonal, square),
        lambda: compose_adjective(square, square),
        lambda: LexicalSemantics(space, {"dog": square}, {}),
    ):
        with pytest.raises(CompositionError):
            compose()


def test_writers_and_readers_keep_order_one_keyed_by_index(tmp_path):
    space = SPACES[2]
    vector = WeightedVector(space, {2: 1.5, 0: -0.25})
    save_tensor(tmp_path / "t.tsv", vector)
    save_vectors(tmp_path / "v.tsv", {"dog": vector}, space)
    loaded = [load_tensor(tmp_path / "t.tsv", space), load_vectors(tmp_path / "v.tsv", space)["dog"]]
    assert loaded == [vector, vector]
    assert [list(v.entries) for v in loaded] == [[0, 2], [0, 2]]
    assert vector.get(2) == 1.5 and vector.labelled() == {"a": -0.25, "c": 1.5}
    with pytest.raises(TypeError):  # a 1-tuple is the constructor's key, not an entry's
        vector.get((2,))
    with pytest.raises(SpaceMismatchError, match="'dog' is not an order-1 tensor"):
        save_vectors(tmp_path / "w.tsv", {"dog": kronecker(vector, vector)}, space)
    assert not (tmp_path / "w.tsv").exists()
