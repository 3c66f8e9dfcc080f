"""The one verb contraction and the slot plan read off the reduction's links.

``compose_sentence`` reads which noun phrase feeds which tensor slot, and
which modifiers apply to which noun, from the links of the reduction it
chose.  These tests build sentences from noun phrases with stacked
modifiers (adjectives, and nouns listed with a second modifier type) around
verbs of every arity, and check the composed meaning against the same
composition done by hand: each modifier applied nearest first, then the
definitional contraction of ``tests/oracles.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_contract
from gramsem.composition import (
    LexicalSemantics,
    SentenceSpace,
    _choose_types,
    compose_adjective,
    compose_sentence,
    contract,
)
from gramsem.errors import CompositionError
from gramsem.pregroup import Lexicon, parse_type
from gramsem.vectorspace import BasisRegistry, SemTensor, WeightedVector

SPACES = [BasisRegistry(f"d{d}", tuple("abcd"[:d])) for d in range(1, 5)]
WEIGHTS = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
NOUN, MODIFIER = parse_type("n"), parse_type("n n^l")
VERB_TYPES = {1: "n^r s", 2: "n^r s n^l", 3: "n^r s n^l n^l"}
NOUNS = ("n0", "n1", "n2")
DUAL_NOUNS = ("d0", "d1")  # a noun that is also listed as a modifier
ADJECTIVES = ("a0", "a1")


def vector(draw, space):
    keys = st.integers(min_value=0, max_value=len(space) - 1)
    return WeightedVector(space, draw(st.dictionaries(keys, WEIGHTS, min_size=1, max_size=len(space))))


def tensor(draw, space, order):
    keys = st.tuples(*[st.integers(min_value=0, max_value=len(space) - 1)] * order)
    size = len(space) ** order
    return SemTensor(space, order, draw(st.dictionaries(keys, WEIGHTS, min_size=size // 2, max_size=size)))


def noun_phrase(draw, head_may_be_dual=True):
    """A noun phrase's words and their types: 0-3 modifiers, then the noun."""
    modifiers = draw(st.lists(st.sampled_from(ADJECTIVES + DUAL_NOUNS), max_size=3))
    noun = draw(st.sampled_from(NOUNS + DUAL_NOUNS if head_may_be_dual else NOUNS))
    return modifiers + [noun], [MODIFIER] * len(modifiers) + [NOUN]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(SPACES), st.integers(min_value=0, max_value=3))
def test_compose_sentence_equals_the_hand_composition(data, space, arity):
    draw = data.draw
    vectors = {w: vector(draw, space) for w in NOUNS + DUAL_NOUNS}
    tensors = {w: tensor(draw, space, draw(st.sampled_from([1, 2]))) for w in ADJECTIVES + DUAL_NOUNS}
    entries = {w: (NOUN,) for w in NOUNS}
    entries.update({w: (NOUN, MODIFIER) for w in DUAL_NOUNS})
    entries.update({w: (MODIFIER,) for w in ADJECTIVES})
    if arity:
        tensors["v"] = tensor(draw, space, arity)
        entries["v"] = (parse_type(VERB_TYPES[arity]),)
    grammar = Lexicon(entries)
    lex = LexicalSemantics(space, vectors, tensors)

    # A ditransitive's first object ends in a plain noun: a noun that can
    # also modify would let that object's modifiers and noun split another way.
    phrases = [noun_phrase(draw, head_may_be_dual=not (arity == 3 and k == 1))
               for k in range(max(arity, 1))]
    words, types = list(phrases[0][0]), list(phrases[0][1])
    if arity:
        words.append("v")
        types.append(entries["v"][0])
    for more_words, more_types in phrases[1:]:
        words += more_words
        types += more_types
    assert _choose_types(words, grammar)[0] == tuple(types)  # the intended parse

    arguments = []
    for phrase_words, _ in phrases:
        *modifiers, noun = phrase_words
        argument = vectors[noun]
        for modifier in reversed(modifiers):
            argument = compose_adjective(tensors[modifier], argument)
        arguments.append(argument)
    if arity:
        expected = oracle_contract(tensors["v"], *arguments)
    else:
        expected = SemTensor(space, 1, {(i,): w for i, w in arguments[0].entries.items()})

    meaning = compose_sentence(words, lex, grammar)
    assert meaning.value == expected
    assert list(meaning.value.entries) == list(expected.entries)
    assert meaning.sentence_space is {0: SentenceSpace.N, 1: SentenceSpace.N,
                                      2: SentenceSpace.N2, 3: SentenceSpace.N3}[arity]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(SPACES), st.integers(min_value=1, max_value=3))
def test_contract_equals_the_definitional_loop(data, space, order):
    verb = tensor(data.draw, space, order)
    args = [vector(data.draw, space) for _ in range(order)]
    meaning = contract(verb, *args)
    expected = oracle_contract(verb, *args)
    assert meaning.value == expected
    assert list(meaning.value.entries) == list(expected.entries)
    assert meaning.sentence_space.order == order


REJECTED = {
    # the verb and its subject reduce to [s] next to an island that cancels on its own
    "island": ({"x": "n", "y": "n^r", "dogs": "n", "sleep": "n^r s"}, "x y dogs sleep"),
    "three objects": ({"ann": "n", "bob": "n", "cup": "n", "pen": "n",
                       "give": "n^r s n^l n^l n^l"}, "ann give bob cup pen"),
    "two-noun modifier": ({"odd": "n n^l n^l", "dogs": "n", "cats": "n", "sleep": "n^r s"},
                          "odd dogs cats sleep"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_unsupported_reductions_are_rejected(case):
    types, sentence = REJECTED[case]
    space = SPACES[1]
    grammar = Lexicon({w: (parse_type(t),) for w, t in types.items()})
    vectors = {w: WeightedVector(space, {0: 1.0}) for w in types}
    lex = LexicalSemantics(space, vectors, {"sleep": SemTensor(space, 1, {(0,): 1.0})})
    # each string reduces to [s], so the error is the shape's, not the grammar's
    with pytest.raises(CompositionError, match="unsupported"):
        compose_sentence(sentence.split(), lex, grammar)
