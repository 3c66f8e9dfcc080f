"""Unit tests for pregroup types, reduction and lexica."""

import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import CATEGORY_TYPES, category_strings, reachable_residuals
from gramsem.errors import LexiconError
from gramsem.pregroup import (
    ADJECTIVE,
    DITRANSITIVE_VERB,
    INTRANSITIVE_VERB,
    NOUN,
    TRANSITIVE_VERB,
    AtomicType,
    Lexicon,
    PregroupType,
    cancels,
    is_sentence,
    left_adjoint,
    load_lexicon,
    parse_atom,
    parse_type,
    reduce,
    right_adjoint,
    save_lexicon,
    standard_lexicon,
)

N = AtomicType("n")
S = AtomicType("s")


# --- adjoints ---------------------------------------------------------------


def test_adjoint_examples():
    assert left_adjoint(N) == AtomicType("n", -1)
    assert left_adjoint(AtomicType("n", 1)) == N
    assert left_adjoint(AtomicType("s", -1)) == AtomicType("s", -2)
    assert right_adjoint(N) == AtomicType("n", 1)
    assert right_adjoint(AtomicType("n", -1)) == N


@given(st.sampled_from("nsx"), st.integers(min_value=-4, max_value=4))
def test_adjoint_round_trip(base, z):
    t = AtomicType(base, z)
    assert right_adjoint(left_adjoint(t)) == t
    assert left_adjoint(right_adjoint(t)) == t


def test_atom_formatting_and_parsing():
    assert str(AtomicType("n", 0)) == "n"
    assert str(AtomicType("n", 1)) == "n^r"
    assert str(AtomicType("s", -2)) == "s^ll"
    for text in ("n", "n^r", "n^l", "s^ll", "n^rr"):
        assert str(parse_atom(text)) == text
    assert parse_type("n^r s n^l").atoms == (
        AtomicType("n", 1),
        S,
        AtomicType("n", -1),
    )
    with pytest.raises(LexiconError):
        parse_atom("n^x")
    with pytest.raises(LexiconError):
        parse_type("")


def test_empty_type_prints_as_unit():
    assert str(PregroupType()) == "1"


# --- reduction --------------------------------------------------------------


def test_reduce_transitive_sentence():
    result = reduce([parse_type(NOUN), parse_type(TRANSITIVE_VERB), parse_type(NOUN)])
    assert result.residual.atoms == (S,)
    assert set(result.links) == {(0, 1), (3, 4)}
    assert is_sentence(result)


def test_reduce_adjective_noun():
    result = reduce([parse_type(ADJECTIVE), parse_type(NOUN)])
    assert result.residual.atoms == (N,)
    assert set(result.links) == {(1, 2)}
    assert not is_sentence(result)


def test_reduce_scrambled_order_is_not_a_sentence():
    types = [parse_type(NOUN), parse_type(NOUN), parse_type(TRANSITIVE_VERB)]
    result = reduce(types)
    assert len(result.residual) >= 2
    assert not is_sentence(result)
    # No ordering of cancellations rescues it either.
    assert (S,) not in reachable_residuals(types)


def test_reduce_rejects_empty_input():
    with pytest.raises(ValueError):
        reduce([])


def test_is_sentence_cases():
    yes = reduce([parse_type(NOUN), parse_type(INTRANSITIVE_VERB)])
    assert is_sentence(yes)
    no = reduce([parse_type(NOUN)])
    assert not is_sentence(no)
    partial = reduce([parse_type("s n^l")])
    assert not is_sentence(partial)


_SENTENCE_SHAPE = re.compile(r"^A*N(TA*N|I|DA*NA*N)$")


@pytest.mark.parametrize("shape", ["NTN", "NI", "AN", "NDNN", "ANTAN", "AAN", "ANDNN"])
def test_standard_shapes_reduce(shape):
    result = reduce([CATEGORY_TYPES[c] for c in shape])
    expected = (S,) if _SENTENCE_SHAPE.match(shape) else (N,)
    assert result.residual.atoms == expected


def test_reduction_conservation_and_planarity():
    for shape in category_strings(4):
        result = reduce([CATEGORY_TYPES[c] for c in shape])
        linked = {p for link in result.links for p in link}
        assert len(linked) == 2 * len(result.links)
        assert len(linked) + len(result.residual) == len(result.atoms)
        # linked atoms cancel properly
        for i, j in result.links:
            assert i < j
            assert cancels(result.atoms[i], result.atoms[j])
            assert result.atoms[i].base == result.atoms[j].base
            assert result.atoms[j].adjoint_order == result.atoms[i].adjoint_order + 1
        # planar: no pair of links interleaves
        for (i, j), (k, l) in itertools.combinations(result.links, 2):
            assert not (i < k < j < l) and not (k < i < l < j)


def test_eager_reduction_matches_exhaustive_oracle_small():
    # Longer strings run in the acceptance suite; 3 keeps this test snappy.
    for shape in category_strings(3):
        types = [CATEGORY_TYPES[c] for c in shape]
        result = reduce(types)
        oracle = reachable_residuals(types)
        assert result.residual.atoms in oracle
        assert len(result.residual) == min(len(r) for r in oracle)
        assert ((S,) in oracle) == (result.residual.atoms == (S,))


# --- lexicon ----------------------------------------------------------------


def test_lexicon_basics():
    lexicon = standard_lexicon(nouns=["dogs", "cats"], transitive=["chase"])
    assert "dogs" in lexicon
    assert lexicon.types_for("chase") == (parse_type(TRANSITIVE_VERB),)
    with pytest.raises(LexiconError):
        lexicon.types_for("martians")


def test_lexicon_ambiguity():
    lexicon = Lexicon.from_pairs([("run", INTRANSITIVE_VERB), ("run", TRANSITIVE_VERB)])
    assert len(lexicon.types_for("run")) == 2
    with pytest.raises(LexiconError):
        lexicon.type_sequence(["run"])


def test_lexicon_requires_types():
    with pytest.raises(LexiconError):
        Lexicon({"word": ()})


def test_lexicon_file_round_trip(tmp_path):
    path = tmp_path / "lexicon.tsv"
    lexicon = standard_lexicon(
        nouns=["dogs"], transitive=["chase"], adjectives=["fluffy"], ditransitive=["give"]
    )
    save_lexicon(path, lexicon)
    loaded = load_lexicon(path)
    assert loaded == lexicon


@pytest.mark.parametrize("word, typ", [
    ("c#", NOUN),  # load_lexicon would read 'c' with no type
    ("#x", NOUN),  # load_lexicon would drop the line
    ("dogs", "n#"),
])
def test_save_lexicon_refuses_an_entry_containing_hash(tmp_path, word, typ):
    # load_lexicon cuts each line at its first '#', so the entry could not be read back
    lexicon = Lexicon.from_pairs([("cats", NOUN), (word, typ)])
    with pytest.raises(ValueError, match="contains '#'"):
        save_lexicon(tmp_path / "lexicon.tsv", lexicon)
    assert list(tmp_path.iterdir()) == []


def test_lexicon_file_comments_and_errors(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("# comment\ndogs\tn\nchase\tn^r s n^l  # verb\n", encoding="utf-8")
    lexicon = load_lexicon(path)
    assert lexicon.types_for("chase") == (parse_type(TRANSITIVE_VERB),)
    path.write_text("dogs n\n", encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(path)


def test_undecodable_lexicon_raises_lexicon_error_naming_the_line(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_bytes(b"dogs\tn\ncats\tn\nch\xe9se\tn^r s n^l\n")
    with pytest.raises(LexiconError, match=re.escape(f"{path}:3: 'utf-8' codec can't decode")):
        load_lexicon(path)
