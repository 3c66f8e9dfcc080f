"""Unit tests for meaning composition, embeddings and the truth model."""

import math
import os
import tempfile
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    CHASE_MATRIX,
    FLUFFY_DIAGONAL,
    TOY_NOUNS,
    TOY_SPACE,
    save_semantics,
    toy_chase,
    toy_fluffy,
    toy_vector,
)
from oracles import keyed_by_tuples, oracle_pad
from gramsem.composition import (
    TRUTH_SPACE,
    LexicalSemantics,
    SentenceMeaning,
    SentenceSpace,
    align_orders,
    compose_adjective,
    compose_sentence,
    compose_transitive,
    contract,
    embed_to_ditransitive,
    embed_to_transitive,
    load_semantics,
    truth_meaning,
    truth_theoretic_verb,
    truth_value,
)
from gramsem.errors import CompositionError, UngrammaticalError, UnknownLabelError
from gramsem.pregroup import standard_lexicon
from gramsem.vectorspace import (
    BasisRegistry,
    SemTensor,
    WeightedVector,
    add,
    cosine,
    inner,
    norm,
    save_tensor,
    scale,
)

GRAMMAR = standard_lexicon(
    nouns=["dogs", "cats", "bankers", "stock", "kittens"],
    transitive=["chase"],
    intransitive=["sleep"],
    adjectives=["fluffy", "shrewd"],
    ditransitive=["give"],
)


def transitive_oracle(subj_name, matrix, obj_name):
    """Scalar expansion of sum_itj C_itj <subj|v_i> s_t <w_j|obj> with
    s_t ranging over all basis pairs and C_itj = 0 unless t = (i, j)."""
    dim = len(TOY_SPACE)
    subj, obj = TOY_NOUNS[subj_name], TOY_NOUNS[obj_name]
    out = np.zeros((dim, dim))
    for i in range(dim):
        for t in range(dim * dim):
            for j in range(dim):
                ti, tj = divmod(t, dim)
                c = matrix[i][j] if (ti, tj) == (i, j) else 0.0
                out[ti, tj] += c * subj[i] * obj[j]
    return out


def test_compose_transitive_matches_scalar_oracle():
    meaning = compose_transitive(toy_vector("dogs"), toy_chase(), toy_vector("cats"))
    assert meaning.sentence_space is SentenceSpace.N2
    oracle = transitive_oracle("dogs", CHASE_MATRIX, "cats")
    dense = meaning.value.to_dense()
    assert np.allclose(dense, oracle, rtol=1e-12, atol=0)
    # ferocious subject attribute, fluffy object attribute: 7 * 6 * 7
    assert meaning.value.get((1, 0)) == 294.0


def test_compose_transitive_zero_and_substitution():
    zero = WeightedVector(TOY_SPACE, {})
    assert compose_transitive(zero, toy_chase(), toy_vector("cats")).value.is_zero()
    e1 = WeightedVector.basis_vector(TOY_SPACE, "arg-ferocious")
    e0 = WeightedVector.basis_vector(TOY_SPACE, "arg-fluffy")
    meaning = compose_transitive(e1, toy_chase(), e0)
    assert meaning.value.entries == {(1, 0): 7.0}


def test_compose_transitive_bilinearity():
    rng = np.random.default_rng(11)
    verb = toy_chase()
    for _ in range(50):
        a = WeightedVector(TOY_SPACE, {i: rng.uniform(-2, 2) for i in range(5)})
        a2 = WeightedVector(TOY_SPACE, {i: rng.uniform(-2, 2) for i in range(5)})
        o = WeightedVector(TOY_SPACE, {i: rng.uniform(-2, 2) for i in range(5)})
        alpha = float(rng.uniform(-2, 2))
        left = compose_transitive(add(scale(a, alpha), a2), verb, o).value
        right_parts = (
            scale(compose_transitive(a, verb, o).value, alpha),
            compose_transitive(a2, verb, o).value,
        )
        for key in set(left.entries) | set(right_parts[0].entries) | set(right_parts[1].entries):
            expected = right_parts[0].get(key) + right_parts[1].get(key)
            assert left.get(key) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_compose_intransitive():
    space = BasisRegistry("s", ("x", "y"))
    subj = WeightedVector(space, {0: 2.0, 1: 3.0})
    verb = SemTensor(space, 1, {(0,): 4.0, (1,): 1.0})
    meaning = contract(verb, subj)
    assert meaning.sentence_space is SentenceSpace.N
    assert meaning.value.entries == {0: 8.0, 1: 3.0}
    assert contract(verb, WeightedVector(space, {})).value.is_zero()
    ones = SemTensor(space, 1, {(0,): 1.0, (1,): 1.0})
    assert contract(ones, subj).value == subj


def test_compose_ditransitive_matches_triple_loop():
    space = BasisRegistry("s", ("x", "y"))
    rng = np.random.default_rng(3)
    verb = SemTensor(
        space, 3, {(i, j, k): float(rng.uniform(1, 2)) for i in range(2) for j in range(2) for k in range(2)}
    )
    s = WeightedVector(space, {0: 1.5, 1: -0.5})
    o = WeightedVector(space, {0: 2.0})
    io = WeightedVector(space, {1: 3.0})
    meaning = contract(verb, s, o, io)
    dense = verb.to_dense() * np.einsum(
        "i,j,k->ijk", s.to_dense(), o.to_dense(), io.to_dense()
    )
    assert np.allclose(meaning.value.to_dense(), dense, rtol=1e-12)
    zero = WeightedVector(space, {})
    assert contract(verb, zero, o, io).value.is_zero()


def test_compose_adjective_examples():
    result = compose_adjective(toy_fluffy(), toy_vector("dogs"))
    assert [result.get(i) for i in range(5)] == [27.0, 18.0, 8.0, 2.0, 4.0]
    assert compose_adjective(toy_fluffy(), WeightedVector(TOY_SPACE, {})).is_zero()
    # diagonal order-2 tensor gives exactly the order-1 result
    diag = SemTensor(TOY_SPACE, 2, {(i, i): float(w) for i, w in enumerate(FLUFFY_DIAGONAL)})
    assert compose_adjective(diag, toy_vector("dogs")) == result


def test_compose_adjective_full_matrix():
    space = BasisRegistry("s", ("x", "y"))
    adj = SemTensor(space, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0})
    noun = WeightedVector(space, {0: 5.0, 1: 7.0})
    result = compose_adjective(adj, noun)
    assert result.entries == {0: 5.0 + 14.0, 1: 21.0}
    with pytest.raises(CompositionError):
        compose_adjective(SemTensor(space, 3, {}), noun)


def test_arity_and_space_mismatches():
    space = BasisRegistry("s", ("x", "y"))
    other = BasisRegistry("o", ("x", "y"))
    v = WeightedVector(space, {0: 1.0})
    with pytest.raises(CompositionError):
        compose_transitive(v, SemTensor(space, 1, {}), v)
    with pytest.raises(CompositionError):
        compose_transitive(WeightedVector(other, {0: 1.0}), SemTensor(space, 2, {}), v)


# --- embeddings ---------------------------------------------------------------


def test_embed_to_transitive_expansion():
    space = BasisRegistry("s", ("x", "y"))
    m = SentenceMeaning(SemTensor(space, 1, {(0,): 2.0, (1,): 3.0}), SentenceSpace.N)
    e = embed_to_transitive(m)
    assert e.value.entries == {(0, 0): 2.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 3.0}
    zero = SentenceMeaning(SemTensor(space, 1, {}), SentenceSpace.N)
    assert embed_to_transitive(zero).value.is_zero()


def test_embeddings_preserve_cosine():
    rng = np.random.default_rng(8)
    space = BasisRegistry("s", tuple(f"b{i}" for i in range(4)))
    for _ in range(50):
        m1 = SentenceMeaning(
            SemTensor(space, 1, {(i,): rng.uniform(-1, 1) for i in range(4)}), SentenceSpace.N
        )
        m2 = SentenceMeaning(
            SemTensor(space, 1, {(i,): rng.uniform(-1, 1) for i in range(4)}), SentenceSpace.N
        )
        base = cosine(m1.value, m2.value)
        for embed in (embed_to_transitive, embed_to_ditransitive):
            assert cosine(embed(m1).value, embed(m2).value) == pytest.approx(base, abs=1e-12)
        p1, p2 = embed_to_transitive(m1), embed_to_transitive(m2)
        assert cosine(
            embed_to_ditransitive(p1).value, embed_to_ditransitive(p2).value
        ) == pytest.approx(cosine(p1.value, p2.value), abs=1e-12)


# Weights in +-[1e-3, 1e3], some scaled by 1e200 or 1e-200 so that a squared
# weight overflows or underflows and ``cosine`` rescales its operands.
PAD_WEIGHTS = st.tuples(
    st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
    st.sampled_from([1.0] * 8 + [1e200, 1e-200]),
).map(lambda pair: pair[0] * pair[1])


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([(1, 2), (1, 3), (2, 3)]), st.integers(1, 40))
def test_padding_equals_the_naive_copy(data, orders, d):
    low, high = orders
    space = BasisRegistry(f"d{d}", tuple(f"b{i}" for i in range(d)))
    index = st.integers(0, d - 1)
    keys = st.tuples(*[index] * low)
    a = SemTensor(space, low, data.draw(st.dictionaries(keys, PAD_WEIGHTS, min_size=1, max_size=12)))
    # B's rows often start with a key of a, so that the inner product is not 0
    rows = st.one_of(st.sampled_from(sorted(keyed_by_tuples(a))), keys)
    b_keys = st.tuples(rows, st.tuples(*[index] * (high - low))).map(lambda p: p[0] + p[1])
    b = SemTensor(space, high, data.draw(st.dictionaries(b_keys, PAD_WEIGHTS, min_size=1, max_size=30)))
    meaning = SentenceMeaning(a, {1: SentenceSpace.N, 2: SentenceSpace.N2}[low])
    embed = embed_to_transitive if high == 2 else embed_to_ditransitive

    expected, expected_norm = oracle_pad(a, high)
    padded = embed(meaning).value
    assert list(padded.entries.items()) == list(expected.entries.items())
    assert norm(padded) == expected_norm
    assert cosine(embed(meaning).value, b) == cosine(expected, b)
    assert cosine(embed(meaning).value, SemTensor(space, high, expected.entries)) == 1.0

    # The padded meaning is a view of a's entries; read as a mapping it is the copy.
    view, copy = padded.entries, expected.entries
    assert len(view) == len(copy)
    assert view == copy and copy == view and padded == expected and expected == padded
    changed = dict(copy)
    key = next(iter(changed))
    changed[key] = -changed[key]
    assert view != changed and changed != view
    m = high - low
    head = min(keyed_by_tuples(a))
    absent = next((k for k in product(range(d), repeat=low) if k not in keyed_by_tuples(a)), None)
    probes = [*keyed_by_tuples(b), head + (d,) * m, head + (-1,) + (0,) * (m - 1),
              head + (0,) * (m - 1), head + (0,) * (m + 1), (0,) * (high + 1), head + (0.0,) * m]
    if absent is not None:
        probes.append(absent + (0,) * m)
    assert [k in view for k in probes] == [k in copy for k in probes]
    assert repr(padded) == repr(expected)
    assert cosine(b, padded) == cosine(padded, b)
    assert inner(b, padded) == inner(padded, b) == inner(expected, b)
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, name) for name in ("view.tsv", "copy.tsv")]
        save_tensor(paths[0], padded)
        save_tensor(paths[1], expected)
        with open(paths[0], "rb") as saved_view, open(paths[1], "rb") as saved_copy:
            assert saved_view.read() == saved_copy.read()


def test_padded_norm_is_the_sorted_sum_of_its_squares():
    space = BasisRegistry("d5", tuple("abcde"))
    a = SemTensor(space, 1, {(0,): -1.7, (1,): -0.4, (2,): 5.1, (3,): -3.5})
    padded = embed_to_transitive(SentenceMeaning(a, SentenceSpace.N)).value
    assert norm(padded) == oracle_pad(a, 2)[1] == 14.37184748040418
    # the same norm as sqrt(d**m) * |a| is an ulp off
    assert math.sqrt(5) * norm(a) == 14.371847480404183


def test_padding_across_orders_stores_no_padded_entry():
    # 17 entries of order 1 against 17**3 = 4913 of order 3 at d = 200: a
    # padded copy would hold 17 * 200**2 = 680,000 entries (about 60 MiB).
    space = BasisRegistry("d200", tuple(f"b{i}" for i in range(200)))
    support = range(3, 200, 12)
    n = SentenceMeaning(SemTensor(space, 1, {(i,): 1.0 + i / 7 for i in support}), SentenceSpace.N)
    n3 = SentenceMeaning(
        SemTensor(space, 3, {(i, j, k): (i - j) / (1 + k) or 0.5
                             for i in support for j in support for k in support}),
        SentenceSpace.N3,
    )
    tracemalloc.start()
    try:
        padded, same = align_orders(n, n3)
        score = cosine(padded.value, same.value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(padded.value.entries) == 17 * 200**2
    expected, _ = oracle_pad(n.value, 3)
    assert score == cosine(expected, n3.value)


def test_align_orders():
    space = BasisRegistry("s", ("x", "y"))
    n1 = SentenceMeaning(SemTensor(space, 1, {(0,): 1.0}), SentenceSpace.N)
    n2 = SentenceMeaning(SemTensor(space, 2, {(0, 1): 1.0}), SentenceSpace.N2)
    n3 = SentenceMeaning(SemTensor(space, 3, {(0, 1, 1): 1.0}), SentenceSpace.N3)
    a, b = align_orders(n1, n2)
    assert a.sentence_space is b.sentence_space is SentenceSpace.N2
    a, b = align_orders(n3, n1)
    assert a.sentence_space is b.sentence_space is SentenceSpace.N3
    a, b = align_orders(n2, n2)
    assert (a, b) == (n2, n2)


def test_embedding_input_validation():
    space = BasisRegistry("s", ("x", "y"))
    pair = SentenceMeaning(SemTensor(space, 2, {}), SentenceSpace.N2)
    with pytest.raises(CompositionError):
        embed_to_transitive(pair)
    triple = SentenceMeaning(SemTensor(space, 3, {}), SentenceSpace.N3)
    with pytest.raises(CompositionError):
        embed_to_ditransitive(triple)


def test_sentence_meaning_validation():
    space = BasisRegistry("s", ("x", "y"))
    with pytest.raises(ValueError):
        SentenceMeaning(SemTensor(space, 2, {}), SentenceSpace.N)
    three = BasisRegistry("t", ("x", "y", "z"))
    with pytest.raises(ValueError, match="2-element basis"):
        SentenceMeaning(SemTensor(three, 1, {}), SentenceSpace.TRUTH)


# --- whole-sentence composition ---------------------------------------------------


def toy_semantics() -> LexicalSemantics:
    vectors = {name: toy_vector(name) for name in TOY_NOUNS}
    tensors = {"chase": toy_chase(), "fluffy": toy_fluffy()}
    tensors["sleep"] = SemTensor(TOY_SPACE, 1, {(i,): 1.0 for i in range(5)})
    tensors["shrewd"] = SemTensor(TOY_SPACE, 1, {(3,): 5.0})
    return LexicalSemantics(TOY_SPACE, vectors, tensors)


def test_compose_sentence_transitive_pipeline():
    lex = toy_semantics()
    direct = compose_transitive(
        compose_adjective(toy_fluffy(), toy_vector("dogs")),
        toy_chase(),
        compose_adjective(toy_fluffy(), toy_vector("cats")),
    )
    via_sentence = compose_sentence(
        ["fluffy", "dogs", "chase", "fluffy", "cats"], lex, GRAMMAR
    )
    assert via_sentence.value == direct.value
    plain = compose_sentence(["dogs", "chase", "cats"], lex, GRAMMAR)
    assert plain.value == compose_transitive(
        toy_vector("dogs"), toy_chase(), toy_vector("cats")
    ).value


def test_compose_sentence_other_patterns():
    lex = toy_semantics()
    sv = compose_sentence(["dogs", "sleep"], lex, GRAMMAR)
    assert sv.sentence_space is SentenceSpace.N
    phrase = compose_sentence(["fluffy", "dogs"], lex, GRAMMAR)
    assert phrase.sentence_space is SentenceSpace.N
    assert phrase.value == compose_adjective(toy_fluffy(), toy_vector("dogs"))
    stacked = compose_sentence(["shrewd", "fluffy", "bankers"], lex, GRAMMAR)
    # nearest adjective applies first
    by_hand = compose_adjective(
        lex.tensor("shrewd"), compose_adjective(toy_fluffy(), toy_vector("bankers"))
    )
    assert stacked.value == by_hand


def test_compose_sentence_adjective_order_for_diagonal_adjectives():
    lex = toy_semantics()
    one = compose_sentence(["shrewd", "fluffy", "bankers"], lex, GRAMMAR)
    two = compose_sentence(["fluffy", "shrewd", "bankers"], lex, GRAMMAR)
    assert one.value == two.value  # diagonal adjectives commute exactly


def test_compose_sentence_ditransitive():
    space = BasisRegistry("s", ("x", "y"))
    grammar = standard_lexicon(nouns=["ann", "bob", "cup"], ditransitive=["give"])
    vectors = {
        "ann": WeightedVector(space, {0: 1.0}),
        "bob": WeightedVector(space, {1: 2.0}),
        "cup": WeightedVector(space, {0: 3.0, 1: 1.0}),
    }
    verb = SemTensor(space, 3, {(0, 1, 0): 2.0, (0, 1, 1): 5.0})
    lex = LexicalSemantics(space, vectors, {"give": verb})
    meaning = compose_sentence(["ann", "give", "bob", "cup"], lex, grammar)
    direct = contract(verb, vectors["ann"], vectors["bob"], vectors["cup"])
    assert meaning.value == direct.value


def test_compose_sentence_errors():
    lex = toy_semantics()
    with pytest.raises(UngrammaticalError):
        compose_sentence(["dogs", "cats", "chase"], lex, GRAMMAR)
    with pytest.raises(CompositionError):
        compose_sentence([], lex, GRAMMAR)
    # grammar knows the word but the semantics lacks a tensor for it
    grammar = standard_lexicon(nouns=["dogs", "cats"], transitive=["pursue"])
    with pytest.raises(CompositionError):
        compose_sentence(["dogs", "pursue", "cats"], lex, grammar)
    # arity mismatch: grammar says intransitive, semantics holds an order-2 tensor
    bad_grammar = standard_lexicon(nouns=["dogs"], intransitive=["chase"])
    with pytest.raises(CompositionError):
        compose_sentence(["dogs", "chase"], lex, bad_grammar)


def test_compose_sentence_formula_equivalence_with_cosine():
    # cosine of two composed meanings equals the fully expanded scalar form
    lex = toy_semantics()
    other = SemTensor(
        TOY_SPACE,
        2,
        {(i, j): float((i * 2 + j * 3) % 5 + 1) for i in range(5) for j in range(5)},
    )
    m1 = compose_transitive(toy_vector("dogs"), toy_chase(), toy_vector("cats")).value
    m2 = compose_transitive(toy_vector("dogs"), other, toy_vector("kittens")).value
    numerator = 0.0
    for i in range(5):
        for j in range(5):
            numerator += (
                CHASE_MATRIX[i][j]
                * other.get((i, j))
                * TOY_NOUNS["dogs"][i] ** 2
                * TOY_NOUNS["cats"][j]
                * TOY_NOUNS["kittens"][j]
            )
    n1 = math.sqrt(sum(w * w for w in m1.entries.values()))
    n2 = math.sqrt(sum(w * w for w in m2.entries.values()))
    assert cosine(m1, m2) == pytest.approx(numerator / (n1 * n2), rel=1e-12)


# --- truth-theoretic model ----------------------------------------------------------


def test_truth_theoretic_examples():
    domain = BasisRegistry("individuals", ("dogs", "cats", "mice"))
    verb = truth_theoretic_verb({("dogs", "cats")}, domain)
    subj = WeightedVector.basis_vector(domain, "dogs")
    obj = WeightedVector.basis_vector(domain, "cats")
    meaning = compose_transitive(subj, verb, obj)
    assert sum(meaning.value.entries.values()) == 1.0
    assert truth_value(meaning)
    empty = truth_theoretic_verb(set(), domain)
    assert empty.is_zero()
    assert not truth_value(compose_transitive(subj, empty, obj))
    full = truth_theoretic_verb(
        {(a, b) for a in domain.labels for b in domain.labels}, domain
    )
    assert len(full.entries) == 9 and set(full.entries.values()) == {1.0}
    with pytest.raises(KeyError):
        truth_theoretic_verb({("dogs", "unicorns")}, domain)


def test_truth_meaning_projection():
    domain = BasisRegistry("individuals", ("a", "b"))
    verb = truth_theoretic_verb({("a", "b")}, domain)
    yes = compose_transitive(
        WeightedVector.basis_vector(domain, "a"), verb, WeightedVector.basis_vector(domain, "b")
    )
    no = compose_transitive(
        WeightedVector.basis_vector(domain, "b"), verb, WeightedVector.basis_vector(domain, "a")
    )
    assert truth_meaning(yes).value.entries == {TRUTH_SPACE.index("true"): 1.0}
    assert truth_meaning(no).value.entries == {TRUTH_SPACE.index("false"): 1.0}


# --- semantics directory --------------------------------------------------------------


def test_semantics_directory_round_trip(tmp_path):
    lex = toy_semantics()
    save_semantics(tmp_path, lex, adjectives=["fluffy", "shrewd"])
    (tmp_path / "verbs" / "notes.txt").write_text("not a tensor file\n", encoding="utf-8")
    loaded = load_semantics(tmp_path, TOY_SPACE)
    assert loaded.vectors == lex.vectors
    assert loaded.tensors == lex.tensors
    assert (tmp_path / "adjectives" / "fluffy.tsv").exists()
    assert (tmp_path / "verbs" / "chase.tsv").exists()


def test_a_tensor_file_is_read_when_first_looked_up(tmp_path):
    # An unknown label is a KeyError: looked up, it must not read as a missing tensor.
    save_semantics(tmp_path, toy_semantics(), adjectives=["fluffy", "shrewd"])
    chase = tmp_path / "verbs" / "chase.tsv"
    with open(chase, "a", encoding="utf-8") as handle:
        handle.write("arg-nope\targ-fluffy\t1.0\n")
    lineno = len(chase.read_text(encoding="utf-8").splitlines())
    lex = load_semantics(tmp_path, TOY_SPACE)
    assert "chase" in lex.tensors and "dogs" not in lex.tensors
    assert lex.tensor_order("chase") == 2 and lex.tensor_order("dogs") is None
    assert lex.tensors.get("dogs") is None and lex.tensors.get("fluffy") == toy_fluffy()
    for lookup in (lex.tensors.get, lex.tensor, lex.tensors.__getitem__):
        with pytest.raises(UnknownLabelError, match=f"chase.tsv:{lineno}: label 'arg-nope'"):
            lookup("chase")


def test_lexical_semantics_validation():
    other = BasisRegistry("o", ("x",))
    with pytest.raises(CompositionError):
        LexicalSemantics(TOY_SPACE, {"w": WeightedVector(other, {0: 1.0})}, {})
    with pytest.raises(CompositionError, match="tensor for 'v' is not in space"):
        LexicalSemantics(TOY_SPACE, {}, {"v": SemTensor(other, 2, {(0, 0): 1.0})})
    lex = toy_semantics()
    with pytest.raises(CompositionError):
        lex.vector("missing")
    with pytest.raises(CompositionError):
        lex.tensor("chase", order=1)
