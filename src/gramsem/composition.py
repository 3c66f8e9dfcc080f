"""Sentence meaning construction from word vectors, tensors and reductions.

A sentence's meaning is the pointwise product of the verb's weight tensor
with the tensor product of its (adjective-modified) argument vectors, so a
transitive sentence lives in the pair space over N, an intransitive one in
N itself and a ditransitive one in the triple space.  Meanings from smaller
spaces embed into larger ones by padding missing argument axes with the
superposition of all basis vectors, which leaves cosines between same-order
meanings unchanged.
"""

from __future__ import annotations

import os
from enum import Enum
from itertools import product
from typing import Mapping, Sequence

from ._value import Value
from .errors import CompositionError, UngrammaticalError
from .pregroup import (
    ADJECTIVE, DITRANSITIVE_VERB, INTRANSITIVE_VERB, NOUN, TRANSITIVE_VERB, Lexicon, PregroupType,
    ReductionResult, is_sentence, parse_type, reduce,
)
from .vectorspace import (
    BasisRegistry,
    SemTensor,
    WeightedVector,
    _kept,
    _padded,
    load_tensor,
    load_vectors,
    pointwise_mul,
)


class SentenceSpace(Enum):
    """Where a composed meaning lives: N, N pair, N triple, or the 2-dim truth space."""

    N = "N"
    N2 = "N*N"
    N3 = "N*N*N"
    TRUTH = "B2"

    @property
    def order(self) -> int:
        return {"N": 1, "N*N": 2, "N*N*N": 3, "B2": 1}[self.value]


TRUTH_SPACE = BasisRegistry("B2", ("false", "true"))


class SentenceMeaning(Value):
    _fields = ("value", "sentence_space")

    def __init__(self, value: SemTensor, sentence_space: SentenceSpace):
        if value.order != sentence_space.order:
            raise ValueError(
                f"tensor order {value.order} does not match "
                f"sentence space {sentence_space.value}"
            )
        if sentence_space is SentenceSpace.TRUTH and len(value.space) != 2:
            raise ValueError("truth-space meanings need a 2-element basis")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "sentence_space", sentence_space)


class LexicalSemantics(Value):
    """Word meanings: plain vectors plus relational tensors.

    ``vectors`` holds distributional vectors (nouns, and optionally verbs or
    adjectives for the folding baselines); ``tensors`` holds the relational
    representations whose order must match the word's grammatical arity.
    """

    _fields = ("space", "vectors", "tensors")

    def __init__(
        self, space: BasisRegistry,
        vectors: Mapping[str, WeightedVector], tensors: Mapping[str, SemTensor],
    ):
        for word, v in vectors.items():
            if v.space != space:
                raise CompositionError(f"vector for {word!r} is not in space {space.name!r}")
        for word, t in tensors.items():
            if t.space != space:
                raise CompositionError(f"tensor for {word!r} is not in space {space.name!r}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "vectors", dict(vectors))
        object.__setattr__(self, "tensors", dict(tensors))

    def vector(self, word: str) -> WeightedVector:
        try:
            return self.vectors[word]
        except KeyError:
            raise CompositionError(f"no vector for word {word!r}") from None

    def tensor(self, word: str, order: int | None = None) -> SemTensor:
        try:
            t = self.tensors[word]
        except KeyError:
            raise CompositionError(f"no tensor for word {word!r}") from None
        if order is not None and t.order != order:
            raise CompositionError(
                f"tensor for {word!r} has order {t.order}, expected {order}"
            )
        return t


_SPACE_BY_ORDER = {1: SentenceSpace.N, 2: SentenceSpace.N2, 3: SentenceSpace.N3}


def contract(verb: SemTensor, *args: WeightedVector) -> SentenceMeaning:
    """Apply a verb tensor to its arguments, subject first.

    Entry (i, j, ...) = C_ij... * a_i * b_j * ..., multiplied left to right,
    keyed in the arguments' own entry order; the meaning lives in N, N*N or
    N*N*N as the verb has one, two or three arguments.
    """
    _check_composable(verb, len(args), *args)
    *heads, last = args
    prefixes = [((), ())]  # (key, factors) over the arguments but the last
    for v in heads:
        prefixes = [(key + (i,), factors + (a,)) for key, factors in prefixes
                    for i, a in v.entries.items()]
    ends = [((j,), b) for j, b in last.entries.items()]  # key suffixes, built once
    get = verb.entries.get
    entries = {}
    for prefix, factors in prefixes:
        for end, b in ends:
            key = prefix + end
            c = get(key)
            if c is not None:
                for a in factors:
                    c = c * a
                entries[key] = c * b
    meaning = SemTensor._trusted(verb.space, len(args), _kept(entries))
    return SentenceMeaning(meaning, _SPACE_BY_ORDER[len(args)])


def compose_transitive(
    subj: WeightedVector, verb: SemTensor, obj: WeightedVector
) -> SentenceMeaning:
    """Meaning of subject-verb-object: entry (i, j) = C_ij * subj_i * obj_j."""
    return contract(verb, subj, obj)


def compose_adjective(adj: SemTensor, noun: WeightedVector) -> WeightedVector:
    """Apply an adjective to a noun vector.

    Diagonal (order-1) adjectives filter the noun pointwise; full order-2
    adjectives act as a matrix: result_i = sum_j C_ij * noun_j.
    """
    if adj.order == 1:
        _check_composable(adj, 1, noun)
        return pointwise_mul(noun, adj.to_vector())
    if adj.order == 2:
        _check_composable(adj, 2, noun)
        entries: dict[int, float] = {}
        for (i, j), c in sorted(adj.entries.items()):
            a = noun.entries.get(j)
            if a is not None:
                entries[i] = entries.get(i, 0.0) + c * a
        return WeightedVector._trusted(noun.space, _kept(entries))
    raise CompositionError(f"adjective tensors must have order 1 or 2, got {adj.order}")


def _check_composable(verb: SemTensor, order: int, *vectors: WeightedVector) -> None:
    if verb.order != order:
        raise CompositionError(f"expected an order-{order} tensor, got order {verb.order}")
    for v in vectors:
        if v.space != verb.space:
            raise CompositionError(
                f"argument space {v.space.name!r} differs from tensor space {verb.space.name!r}"
            )


def embed_to_transitive(m: SentenceMeaning) -> SentenceMeaning:
    """Pad an N meaning into the pair space: entry (i, j) = m_i for every j.

    Equivalent to tensoring with the superposition of all basis vectors on
    the missing object axis; cosines between same-order meanings survive
    unchanged because inner products and norms scale uniformly.
    """
    if m.sentence_space is not SentenceSpace.N:
        raise CompositionError("only N meanings embed into the pair space")
    return SentenceMeaning(_padded(m.value, 2), SentenceSpace.N2)


def embed_to_ditransitive(m: SentenceMeaning) -> SentenceMeaning:
    """Pad an N or pair-space meaning into the triple space the same way."""
    if m.sentence_space not in (SentenceSpace.N, SentenceSpace.N2):
        raise CompositionError("only N and N*N meanings embed into the triple space")
    return SentenceMeaning(_padded(m.value, 3), SentenceSpace.N3)


def align_orders(a: SentenceMeaning, b: SentenceMeaning) -> tuple[SentenceMeaning, SentenceMeaning]:
    """Embed the smaller-order meaning so both live in the same space."""
    target = max(a.sentence_space.order, b.sentence_space.order)

    def lift(m: SentenceMeaning) -> SentenceMeaning:
        if m.sentence_space.order == target:
            return m
        return embed_to_transitive(m) if target == 2 else embed_to_ditransitive(m)

    return lift(a), lift(b)


# ---------------------------------------------------------------------------
# Whole-sentence composition: the reduction's links say which noun phrase
# feeds which slot of the verb tensor, and which modifiers apply to which
# noun.
# ---------------------------------------------------------------------------


# The types a slot plan reads: a noun, a noun modifier, and the verbs by arity.
_NOUN, _MODIFIER = parse_type(NOUN), parse_type(ADJECTIVE)
_VERB_ARITY = {parse_type(t): arity for arity, t in
               enumerate((INTRANSITIVE_VERB, TRANSITIVE_VERB, DITRANSITIVE_VERB), 1)}


def _choose_types(
    words: Sequence[str], grammar: Lexicon
) -> tuple[tuple[PregroupType, ...], ReductionResult]:
    """Pick one type per word so the string reduces to [s] (or failing that [n])."""
    options = [grammar.types_for(w) for w in words]
    noun_phrase = None
    for combo in product(*options):
        result = reduce(combo)
        if is_sentence(result):
            return combo, result
        if noun_phrase is None and result.residual == _NOUN:
            noun_phrase = (combo, result)
    if noun_phrase is not None:
        return noun_phrase
    raise UngrammaticalError(f"{' '.join(words)!r} does not reduce to a sentence or noun phrase")


def _plan(words: Sequence[str], grammar: Lexicon) -> tuple[int | None, list[list[int]]]:
    """Read the slot plan off the links of the reduction ``compose_sentence`` uses.

    Returns the verb's position (``None`` for a bare noun phrase) and the
    positions of each argument noun phrase, subject first and then the
    objects in slot order, each phrase listing its modifiers left to right
    and then its noun.  The verb owns the one unlinked atom; the partner of
    its ``n^r`` atom heads the subject and the partners of its ``n^l``
    atoms, last atom first, head the objects.  From a phrase's head each
    modifier's ``n^l`` partner leads to the next word, until a noun.
    Raises ``CompositionError`` for any other shape.
    """
    types, reduction = _choose_types(words, grammar)
    owner, first = [], []  # the word of each atom, the first atom of each word
    for word, typ in enumerate(types):
        first.append(len(owner))
        owner += [word] * len(typ.atoms)
    partner = {}
    for i, j in reduction.links:
        partner[i], partner[j] = j, i
    (root,) = (a for a in range(len(owner)) if a not in partner)

    def phrase(head: int) -> list[int]:
        word = owner[head]  # a head is the plain n atom, the first of n and of n n^l
        if types[word] not in (_NOUN, _MODIFIER):
            raise CompositionError("unsupported sentence pattern")
        return [word] if types[word] == _NOUN else [word] + phrase(partner[head + 1])

    if is_sentence(reduction):
        verb = owner[root]
        arity = _VERB_ARITY.get(types[verb])
        if arity is None:
            raise CompositionError(f"unsupported verb type for composition: {types[verb]}")
        last = first[verb] + len(types[verb]) - 1
        heads = [partner[first[verb]]] + [partner[last - k] for k in range(arity - 1)]
    else:
        verb, heads = None, [root]
    phrases = [phrase(head) for head in heads]
    if sum(map(len, phrases)) + (verb is not None) != len(words):
        raise CompositionError("unsupported sentence pattern")
    return verb, phrases


def compose_sentence(
    words: Sequence[str], lex: LexicalSemantics, grammar: Lexicon
) -> SentenceMeaning:
    """Compose a whole sentence (or noun phrase) by its grammatical structure.

    Adjectives apply to their noun first (nearest first when stacked), then
    the verb's tensor contracts with the resulting argument vectors.  Raises
    ``UngrammaticalError`` when the types do not reduce, and
    ``CompositionError`` when semantics are missing or of the wrong arity.
    """
    if not words:
        raise CompositionError("cannot compose an empty word sequence")
    verb, phrases = _plan(words, grammar)

    def noun_vector(phrase: list[int]) -> WeightedVector:
        *adjectives, noun = phrase
        vector = lex.vector(words[noun])
        for adjective in reversed(adjectives):
            vector = compose_adjective(lex.tensor(words[adjective]), vector)
        return vector

    arguments = [noun_vector(p) for p in phrases]
    if verb is None:
        return SentenceMeaning(SemTensor.from_vector(arguments[0]), SentenceSpace.N)
    return contract(lex.tensor(words[verb], order=len(arguments)), *arguments)


# ---------------------------------------------------------------------------
# Truth-theoretic instantiation: the verb tensor is the indicator of a
# relation over a domain of individuals, and a composed sentence is true
# exactly when it carries any weight.
# ---------------------------------------------------------------------------


def truth_theoretic_verb(
    relation: Sequence[tuple[str, str]] | set[tuple[str, str]],
    domain_space: BasisRegistry,
) -> SemTensor:
    """Indicator tensor of a binary relation over named individuals."""
    entries = {}
    for subject, obj in relation:
        entries[(domain_space.index(subject), domain_space.index(obj))] = 1.0
    return SemTensor(domain_space, 2, entries)


def truth_value(m: SentenceMeaning) -> bool:
    """A meaning is true when its total mass is positive."""
    return sum(m.value.entries.values()) > 0


def truth_meaning(m: SentenceMeaning) -> SentenceMeaning:
    """Project a meaning onto the 2-dimensional truth space basis."""
    index = TRUTH_SPACE.index("true" if truth_value(m) else "false")
    return SentenceMeaning(SemTensor(TRUTH_SPACE, 1, {(index,): 1.0}), SentenceSpace.TRUTH)


# ---------------------------------------------------------------------------
# Directory layout: nouns.tsv holds the plain word vectors (nouns plus any
# verb/adjective vectors the folding baselines need), verbs/<verb>.tsv and
# adjectives/<adj>.tsv hold the relational tensors.
# ---------------------------------------------------------------------------


def load_semantics(directory: str | os.PathLike, space: BasisRegistry) -> LexicalSemantics:
    directory = os.fspath(directory)
    vectors_path = os.path.join(directory, "nouns.tsv")
    vectors = load_vectors(vectors_path, space) if os.path.exists(vectors_path) else {}
    tensors: dict[str, SemTensor] = {}
    for sub in ("verbs", "adjectives"):
        folder = os.path.join(directory, sub)
        if not os.path.isdir(folder):
            continue
        for entry in sorted(os.listdir(folder)):
            if not entry.endswith(".tsv"):
                continue
            word, path = entry[: -len(".tsv")], os.path.join(folder, entry)
            if word in tensors:  # only adjectives/<word>.tsv can repeat verbs/<word>.tsv
                first = os.path.join(directory, "verbs", entry)
                raise CompositionError(
                    f"{path}: duplicate tensor definition for {word!r}, also in {first}"
                )
            tensors[word] = load_tensor(path, space)
    return LexicalSemantics(space, vectors, tensors)
