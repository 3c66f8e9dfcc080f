"""Unit tests for counting, weighting and tensor builders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import SAMPLE_SPACE, sample_vector, show_occurrences, show_oracle_entry
from oracles import oracle_count_cooccurrence, oracle_raw_vectors, oracle_tfidf
from gramsem.corpus import (
    CountAccumulator,
    TripleRecord,
    build_adjective_tensor,
    build_ditransitive_tensor,
    build_intransitive_tensor,
    build_verb_tensor,
    count_cooccurrence,
    count_properties,
    raw_vectors,
    read_adjective_pairs,
    read_basis,
    read_corpus,
    read_triples,
    tfidf,
)
from gramsem.errors import FileFormatError, SpaceMismatchError
from gramsem.vectorspace import (
    PLAIN,
    STRUCTURED,
    BasisRegistry,
    SemTensor,
    WeightedVector,
    kronecker,
)

PLAIN_SPACE = BasisRegistry("ctx", ("b", "c", "d"))
PROP_SPACE = BasisRegistry(
    "props", ("subj-chase", "obj-chase", "arg-fluffy", "iobj-give"), STRUCTURED
)


def test_triple_record_invariants():
    TripleRecord("dogs", "sleep")
    TripleRecord("dogs", "chase", "cats")
    TripleRecord("dogs", "give", "cats", "bones")
    with pytest.raises(ValueError):
        TripleRecord("", "chase", "cats")
    with pytest.raises(ValueError):
        TripleRecord("dogs", "", "cats")
    with pytest.raises(ValueError):
        TripleRecord("dogs", "give", None, "bones")


# --- window counting ----------------------------------------------------------


def test_window_counting_hand_simulation():
    acc = count_cooccurrence([["a", "b", "a"]], ["a"], PLAIN_SPACE, window=1)
    assert acc.count("a", "b") == 2
    assert acc.doc_count == 1
    assert acc.doc_frequency[PLAIN_SPACE.index("b")] == 1


def test_window_counting_empty_and_absent():
    acc = count_cooccurrence([], ["a"], PLAIN_SPACE, window=3)
    assert acc.counts == {} and acc.doc_count == 0
    acc = count_cooccurrence([["b", "c"]], ["a"], PLAIN_SPACE, window=3)
    assert acc.counts.get("a") is None


def test_window_respects_width_and_documents():
    # b is two tokens away: invisible at window 1, visible at window 2
    docs = [["a", "x", "b"]]
    assert count_cooccurrence(docs, ["a"], PLAIN_SPACE, 1).count("a", "b") == 0
    assert count_cooccurrence(docs, ["a"], PLAIN_SPACE, 2).count("a", "b") == 1
    # windows never cross a document boundary
    split = count_cooccurrence([["a"], ["b"]], ["a"], PLAIN_SPACE, 5)
    assert split.count("a", "b") == 0
    joined = count_cooccurrence([["a", "b"]], ["a"], PLAIN_SPACE, 5)
    assert joined.count("a", "b") == 1


def test_target_occurrences_accumulate():
    # both occurrences of the target see both b tokens
    acc = count_cooccurrence([["b", "a", "a", "b"]], ["a"], PLAIN_SPACE, window=2)
    assert acc.count("a", "b") == 4


def test_window_counting_validation():
    with pytest.raises(ValueError):
        count_cooccurrence([], ["a"], PLAIN_SPACE, window=0)
    with pytest.raises(ValueError):
        count_cooccurrence([], ["a"], PROP_SPACE, window=1)


# Basis words that are also targets, basis-only words, targets outside the
# basis, tokens that are neither, and a target that never occurs.
COUNT_SPACE = BasisRegistry("ctx", ("b", "c", "d", "e"))
COUNT_TOKENS = ("b", "c", "d", "e", "a", "f", "x", "y")
COUNT_TARGETS = ("b", "c", "a", "f", "ghost")


@settings(max_examples=300, deadline=None)
@given(
    # a window may be wider than its whole document
    documents=st.lists(st.lists(st.sampled_from(COUNT_TOKENS), max_size=30), max_size=6),
    targets=st.none() | st.sets(st.sampled_from(COUNT_TARGETS)),
    window=st.integers(1, 20),
)
def test_window_counting_equals_the_neighbour_loop(documents, targets, window):
    acc = count_cooccurrence(documents, targets, COUNT_SPACE, window)
    if targets is None:  # every token is a target, and keeps a row even if it saw no basis word
        tokens = {token for document in documents for token in document}
        expected = oracle_count_cooccurrence(documents, tokens, COUNT_SPACE, window)
        expected.counts = {**{token: {} for token in tokens}, **expected.counts}
    else:
        expected = oracle_count_cooccurrence(documents, targets, COUNT_SPACE, window)
    assert acc.counts == expected.counts
    assert acc.doc_frequency == expected.doc_frequency
    assert acc.doc_count == expected.doc_count
    assert all(type(row) is dict for row in acc.counts.values())
    assert all(type(c) is int for row in acc.counts.values() for c in row.values())
    assert all(type(c) is int for c in acc.doc_frequency.values())


# --- property counting ----------------------------------------------------------


def test_property_counting_triples():
    acc = count_properties(
        [TripleRecord("dogs", "chase", "cats")], [], ["dogs", "cats"], PROP_SPACE
    )
    assert acc.count("dogs", "subj-chase") == 1
    assert acc.count("cats", "obj-chase") == 1
    assert acc.count("dogs", "obj-chase") == 0


def test_property_counting_adjectives_and_iobj():
    acc = count_properties(
        [TripleRecord("i", "give", "cats", "dogs")],
        [("fluffy", "dog")],
        ["dog", "dogs"],
        PROP_SPACE,
    )
    assert acc.count("dog", "arg-fluffy") == 1
    assert acc.count("dogs", "iobj-give") == 1
    assert acc.doc_count == 2


def test_property_counting_empty_and_unknown_labels():
    acc = count_properties([], [], ["dogs"], PROP_SPACE)
    assert acc.counts == {} and acc.doc_count == 0
    # a verb whose property labels are not in the basis is simply skipped
    acc = count_properties(
        [TripleRecord("dogs", "eat", "food")], [], ["dogs", "food"], PROP_SPACE
    )
    assert acc.counts == {}
    assert acc.doc_count == 1


def test_property_counting_needs_structured_basis():
    with pytest.raises(ValueError):
        count_properties([], [], [], PLAIN_SPACE)


# --- weighting -------------------------------------------------------------------


def _acc_with(count, doc_count, df):
    acc = CountAccumulator(PLAIN_SPACE)
    acc.doc_count = doc_count
    for _ in range(count):
        acc.bump("t", 0)
    acc.doc_frequency[0] = df
    return acc


def test_tfidf_examples():
    # term in every document weighs zero
    everywhere = _acc_with(5, 10, 10)
    assert tfidf(everywhere)["t"].is_zero()
    # zero count stays zero (no entry at all)
    assert tfidf(_acc_with(0, 10, 3)) == {}
    # frozen from count * ln(doc_count / df)
    acc = _acc_with(4, 100, 10)
    expected = 4 * math.log(10)
    assert tfidf(acc)["t"].get(0) == pytest.approx(expected, rel=1e-15)
    assert tfidf(acc)["t"].get(0) == pytest.approx(9.210340371976184, rel=1e-12)


def test_tfidf_unseen_basis_weighs_zero():
    acc = CountAccumulator(PLAIN_SPACE)
    acc.doc_count = 3
    for _ in range(7):
        acc.bump("t", 1)  # no doc_frequency entry for index 1
    assert tfidf(acc)["t"].is_zero()


def test_tfidf_requires_documents():
    with pytest.raises(ValueError):
        tfidf(CountAccumulator(PLAIN_SPACE))


def test_raw_vectors():
    acc = _acc_with(4, 100, 10)
    assert raw_vectors(acc)["t"].get(0) == 4.0


@settings(max_examples=200, deadline=None)
@given(
    documents=st.lists(st.lists(st.sampled_from(COUNT_TOKENS), max_size=30), max_size=6),
    targets=st.none() | st.sets(st.sampled_from(COUNT_TARGETS)),
    window=st.integers(1, 20),
)
def test_weighting_on_lookup_equals_the_eager_oracles(documents, targets, window):
    acc = count_cooccurrence(documents, targets, COUNT_SPACE, window)
    for weighting, oracle in ((raw_vectors, oracle_raw_vectors), (tfidf, oracle_tfidf)):
        if weighting is tfidf and not documents:
            with pytest.raises(ValueError):
                tfidf(acc)
            continue
        vectors, expected = dict(weighting(acc)), oracle(acc)
        assert list(vectors) == list(expected)
        for word, vector in expected.items():
            assert vectors[word] == vector
            assert [*map(repr, vectors[word].entries.items())] == [
                *map(repr, vector.entries.items())
            ]


# --- tensor builders ------------------------------------------------------------------


def test_build_verb_tensor_matches_scalar_oracle():
    tensor = build_verb_tensor(show_occurrences())
    for i in range(4):
        for j in range(4):
            assert tensor.get((i, j)) == show_oracle_entry(i, j)


def test_build_verb_tensor_nonnegative_and_permutation_invariant():
    occurrences = show_occurrences()
    tensor = build_verb_tensor(occurrences)
    assert all(w >= 0 for w in tensor.entries.values())
    flipped = build_verb_tensor(list(reversed(occurrences)))
    assert flipped.entries.keys() == tensor.entries.keys()
    for key, w in tensor.entries.items():
        assert flipped.entries[key] == pytest.approx(w, rel=1e-12)


def test_build_verb_tensor_empty():
    zero = build_verb_tensor([], space=SAMPLE_SPACE)
    assert zero.is_zero() and zero.order == 2
    with pytest.raises(ValueError):
        build_verb_tensor([])


def test_build_intransitive_and_adjective():
    space = BasisRegistry("s", ("x", "y"))
    v1 = WeightedVector(space, {0: 1.0, 1: 2.0})
    v2 = WeightedVector(space, {0: 3.0, 1: 4.0})
    t = build_intransitive_tensor([v1, v2])
    assert t.entries == {0: 4.0, 1: 6.0}
    assert build_intransitive_tensor([], space=space).is_zero()
    assert build_intransitive_tensor([v1]) == v1
    assert build_adjective_tensor([v1, v2]).entries == t.entries
    assert build_adjective_tensor([], space=space).is_zero()


def test_build_ditransitive():
    space = BasisRegistry("s", ("x", "y"))
    e0 = WeightedVector.basis_vector(space, "x")
    e1 = WeightedVector.basis_vector(space, "y")
    assert build_ditransitive_tensor([], space=space).is_zero()
    single = build_ditransitive_tensor([(e0, e1, e0)])
    assert single.entries == {(0, 1, 0): 1.0}
    v1 = WeightedVector(space, {0: 1.0, 1: 2.0})
    v2 = WeightedVector(space, {0: 3.0})
    built = build_ditransitive_tensor([(v1, v2, e1), (e0, e1, e0)])
    # triple-loop oracle
    dense = np.einsum("i,j,k->ijk", v1.to_dense(), v2.to_dense(), e1.to_dense())
    dense += np.einsum("i,j,k->ijk", e0.to_dense(), e1.to_dense(), e0.to_dense())
    assert np.allclose(built.to_dense(), dense)


def test_builders_reject_space_mismatch():
    other = BasisRegistry("other", ("x", "y"))
    with pytest.raises(SpaceMismatchError):
        build_verb_tensor([(sample_vector("map"), WeightedVector(other, {0: 1.0}))])


def test_builders_honour_an_explicit_space():
    other = BasisRegistry("other", ("x", "y"))
    u = WeightedVector(other, {0: 1.0})
    with pytest.raises(SpaceMismatchError):
        build_verb_tensor([(u, u)], space=SAMPLE_SPACE)
    with pytest.raises(SpaceMismatchError):
        build_adjective_tensor([u], space=SAMPLE_SPACE)
    assert build_verb_tensor([(u, u)], space=other).space == other


# --- readers -----------------------------------------------------------------------------


def test_read_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("the map showed the location\n\nthe table  showed\n", encoding="utf-8")
    documents = read_corpus(path)
    expected = [["the", "map", "showed", "the", "location"], ["the", "table", "showed"]]
    assert list(documents) == expected
    assert list(documents) == expected  # each pass reads the file again


def test_read_triples(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text(
        "# comment\nmap\tshow\tlocation\ndogs\tsleep\ndogs\tsleep\t\n"
        "alice\tgive\tbob\tbook\n",
        encoding="utf-8",
    )
    records = read_triples(path)
    assert records[0] == TripleRecord("map", "show", "location")
    assert records[1] == TripleRecord("dogs", "sleep")
    assert records[2] == TripleRecord("dogs", "sleep")
    assert records[3] == TripleRecord("alice", "give", "bob", "book")
    path.write_text("toofew\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_triples(path)


def test_read_adjective_pairs(tmp_path):
    path = tmp_path / "adj.tsv"
    path.write_text("fluffy\tdog\nfluffy\tcat\n", encoding="utf-8")
    assert read_adjective_pairs(path) == [("fluffy", "dog"), ("fluffy", "cat")]
    path.write_text("fluffy\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_adjective_pairs(path)


def test_read_basis(tmp_path):
    path = tmp_path / "basis.txt"
    path.write_text("# ctx words\nfar\nroom\n\nscientific\n", encoding="utf-8")
    space = read_basis(path)
    assert space.labels == ("far", "room", "scientific")
    assert space.name == "basis"
    assert space.kind == PLAIN
    path.write_text("subj-show\nobj-show\n", encoding="utf-8")
    structured = read_basis(path, name="P", kind=STRUCTURED)
    assert structured.kind == STRUCTURED and structured.name == "P"


def test_undecodable_line_is_counted_as_text_mode_counts_lines(tmp_path):
    # text mode ends a line at \n, \r or \r\n: the bad byte is on line 4
    path = tmp_path / "basis.txt"
    path.write_bytes(b"alpha\r\nbeta\rgamma\n\xffdelta\n")
    with pytest.raises(FileFormatError) as raised:
        read_basis(path)
    assert str(raised.value).startswith(f"{path}:4: 'utf-8' codec can't decode byte 0xff")
    with open(path, encoding="utf-8", errors="replace") as handle:
        assert [n for n, line in enumerate(handle, 1) if "\ufffd" in line] == [4]
