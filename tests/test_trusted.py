"""Property tests: the paths that skip re-validation equal their definitions.

Results built inside the library skip the per-index checks of the public
constructors.  These tests check, over small random spaces with weights
that cancel to zero, that every such result is exactly what the validating
constructor gives for the same entries, that the in-place Kronecker-sum
builder equals the definitional fold bit for bit, and that files round-trip.
"""

import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import keyed_by_tuples, oracle_kronecker, oracle_kronecker_sum
from gramsem.composition import (
    SentenceMeaning,
    compose_adjective,
    compose_transitive,
    contract,
    embed_to_ditransitive,
    embed_to_transitive,
)
from gramsem.corpus import (
    build_adjective_tensor,
    build_ditransitive_tensor,
    build_intransitive_tensor,
    build_verb_tensor,
)
from gramsem.vectorspace import (
    BasisRegistry,
    SemTensor,
    WeightedVector,
    add,
    kronecker,
    load_tensor,
    load_vectors,
    norm,
    pointwise_mul,
    save_tensor,
    save_vectors,
    scale,
)

SPACES = [BasisRegistry(f"d{d}", tuple("abcd"[:d])) for d in range(1, 5)]
# Few distinct magnitudes of both signs, so sums cancel to zero often; with
# +-1e16 next to 1.0 a sum taken in another order rounds differently.
WEIGHTS = st.one_of(
    st.sampled_from([-1e16, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 1e16]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
SETTINGS = settings(max_examples=100, deadline=None)


def vector(draw, space):
    keys = st.integers(min_value=0, max_value=len(space) - 1)
    return WeightedVector(space, draw(st.dictionaries(keys, WEIGHTS, max_size=len(space))))


def tensor(draw, space, order):
    keys = st.tuples(*[st.integers(min_value=0, max_value=len(space) - 1)] * order)
    return SemTensor(space, order, draw(st.dictionaries(keys, WEIGHTS, max_size=8)))


def occurrences(draw, space, order):
    count = draw(st.integers(min_value=0, max_value=5))
    if order == 1:
        return [vector(draw, space) for _ in range(count)]
    return [tuple(vector(draw, space) for _ in range(order)) for _ in range(count)]


def assert_valid(value):
    """Equal to the validating constructor's value for the same entries."""
    if isinstance(value, SentenceMeaning):
        value = value.value
    assert value == SemTensor(value.space, value.order, keyed_by_tuples(value))
    assert all(type(w) is float for w in value.entries.values())


BUILDERS = {
    1: (build_intransitive_tensor, build_adjective_tensor),
    2: (build_verb_tensor,),
    3: (build_ditransitive_tensor,),
}


@SETTINGS
@given(st.data(), st.sampled_from(SPACES), st.sampled_from([1, 2, 3]))
def test_builders_equal_the_definitional_fold(data, space, order):
    occ = occurrences(data.draw, space, order)
    expected = oracle_kronecker_sum(order, occ, space)
    for build in BUILDERS[order]:
        built = build(occ, space=space)
        assert built.order == order and built.space == space
        assert built.entries == expected.entries  # exact, not approximate
        assert_valid(built)
    if order > 1:  # the same sum folded through the library's own operations
        folded = SemTensor(space, order, {})
        for vectors in occ:
            folded = add(folded, kronecker(*vectors))
        assert folded.entries == expected.entries


def test_builders_sum_in_occurrence_order():
    # 1.0 + 1e16 rounds to 1e16, so only the first order below sums to zero
    space = SPACES[0]
    occ = [WeightedVector(space, {0: w}) for w in (1.0, 1e16, -1e16)]
    assert build_intransitive_tensor(occ).is_zero()
    assert build_intransitive_tensor(occ[::-1]).entries == {0: 1.0}
    one = WeightedVector(space, {0: 1.0})
    for order, build in ((2, build_verb_tensor), (3, build_ditransitive_tensor)):
        occurrences = [(v,) + (one,) * (order - 1) for v in occ]
        assert build(occurrences).is_zero()
        assert build(occurrences[::-1]) == oracle_kronecker_sum(order, occurrences[::-1], space)


@SETTINGS
@given(st.data(), st.sampled_from(SPACES))
def test_operation_results_equal_validated_values(data, space):
    draw = data.draw
    u, v, w = (vector(draw, space) for _ in range(3))
    factor = draw(WEIGHTS)
    assert kronecker(u, v).entries == oracle_kronecker((u, v), space).entries
    assert kronecker(u, v, w).entries == oracle_kronecker((u, v, w), space).entries
    for order in (1, 2, 3):
        a, b = tensor(draw, space, order), tensor(draw, space, order)
        for value in (add(a, b), pointwise_mul(a, b), scale(a, factor)):
            assert_valid(value)
    diagonal, matrix = tensor(draw, space, 1), tensor(draw, space, 2)
    meanings = [
        contract(diagonal, u),
        compose_transitive(u, matrix, v),
        contract(tensor(draw, space, 3), u, v, w),
    ]
    for value in (
        add(u, v),
        pointwise_mul(u, v),
        scale(u, factor),
        kronecker(u, v),
        kronecker(u, v, w),
        compose_adjective(diagonal, u),
        compose_adjective(matrix, u),
        *meanings,
        embed_to_transitive(meanings[0]),
        embed_to_ditransitive(meanings[0]),
        embed_to_ditransitive(meanings[1]),
    ):
        assert_valid(value)


@SETTINGS
@given(st.data(), st.sampled_from(SPACES), st.sampled_from([1, 2, 3]))
def test_files_round_trip(data, space, order):
    u = vector(data.draw, space)
    t = tensor(data.draw, space, order)
    collection = {word: vector(data.draw, space) for word in ("x", "y")}
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, name) for name in ("v.tsv", "t.tsv", "c.tsv")]
        save_tensor(paths[0], u)
        save_tensor(paths[1], t)
        save_vectors(paths[2], collection, space)
        loaded = [load_tensor(paths[0], space), load_tensor(paths[1], space),
                  load_vectors(paths[2], space)]
    # a zero vector has no rows, so a collection keeps only nonzero ones
    kept = {word: v for word, v in collection.items() if not v.is_zero()}
    assert loaded == [u, t, kept]
    for value in (*loaded[:2], *loaded[2].values()):
        assert_valid(value)


def test_computed_weights_are_never_stored_non_finite():
    space = SPACES[1]
    big = WeightedVector(space, {0: 1e200, 1: -1e200})
    matrix = SemTensor(space, 2, {(0, 0): 1e200})
    for overflow in (
        lambda: add(scale(big, 1e108), scale(big, 1e108)),
        lambda: scale(big, 1e200),
        lambda: pointwise_mul(big, big),
        lambda: kronecker(big, big),
        lambda: build_verb_tensor([(big, big)]),
        lambda: build_intransitive_tensor([scale(big, 1e108)] * 2),
        lambda: compose_transitive(big, matrix, big),
        lambda: compose_adjective(matrix, big),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            overflow()


@SETTINGS
@given(st.data(), st.sampled_from(SPACES), st.sampled_from([1, 2, 3]))
def test_norm_is_the_sorted_sum(data, space, order):
    for value in (vector(data.draw, space), tensor(data.draw, space, order)):
        expected = math.sqrt(sum(w * w for _, w in sorted(value.entries.items())))
        assert norm(value) == expected and norm(value) == expected  # cached the same


def test_norm_sums_in_key_order():
    # 2**54 + 1 rounds back to 2**54, so the order of the sum shows
    space = BasisRegistry("d17", tuple(f"x{i}" for i in range(17)))
    v = WeightedVector(space, {**{i: 1.0 for i in range(1, 17)}, 0: 2.0**27})
    assert norm(v) == 2.0**27


def test_norm_is_kept_with_the_value():
    space = SPACES[2]
    v = WeightedVector(space, {0: 3.0, 2: 4.0})
    assert norm(v) == 5.0
    assert v.__dict__["_norm"] == 5.0
    assert v == WeightedVector(space, {0: 3.0, 2: 4.0})  # equality ignores the cache
    assert norm(SemTensor(space, 1, {})) == 0.0
    assert math.isclose(norm(kronecker(v, v)), 25.0)
