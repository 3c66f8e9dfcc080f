"""Deterministic two-sense disambiguation benchmark.

The ambiguous verb ``charge`` has an attack sense (landmark ``storm``) and a
billing sense (landmark ``bill``).  Each sense occurs with its own subject
and object clusters, whose nouns keep to their own context words except for
``busy``, which is shared by some attack nouns and billing subjects (never
billing objects).  That shared word is role-crossed on purpose: pointwise
folding of word vectors leaks similarity through it, while the verb's pair
tensor keeps the senses apart because the crossed pairs never co-occur.

Everything is integer-counted and ordered, so repeated builds are
identical; sentence pairs take gold rating 7 when the landmark matches the
sense of the context and 1 otherwise.
"""

from __future__ import annotations

import os

from ._value import Value
from .composition import LexicalSemantics
from .corpus import (
    TripleRecord,
    build_verb_tensor,
    count_cooccurrence,
    raw_vectors,
)
from .evaluation import HIGH, LOW, SentencePair, save_dataset
from .pregroup import Lexicon, save_lexicon, standard_lexicon
from .vectorspace import BasisRegistry, _write_lines

_BASES = ("battle", "cavalry", "fury", "invoice", "payment", "account", "busy")

_ATTACK_SUBJECTS = {
    "knight": {"battle": 6, "cavalry": 3, "busy": 1},
    "bull": {"fury": 7, "battle": 2},
    "mob": {"fury": 4, "cavalry": 4, "busy": 2},
    "army": {"battle": 3, "cavalry": 5, "busy": 3},
}
_ATTACK_OBJECTS = {
    "enemy": {"battle": 5, "fury": 3, "busy": 2},
    "fortress": {"cavalry": 2, "battle": 6},
    "rival": {"fury": 6, "cavalry": 1, "busy": 1},
}
_BILLING_SUBJECTS = {
    "vendor": {"invoice": 6, "payment": 3, "busy": 2},
    "clinic": {"account": 7, "invoice": 2, "busy": 1},
    "lawyer": {"payment": 4, "account": 4},
    "hotel": {"invoice": 3, "payment": 5, "busy": 3},
}
_BILLING_OBJECTS = {
    "client": {"invoice": 5, "payment": 3},
    "patient": {"account": 6, "invoice": 2},
    "tenant": {"payment": 6, "account": 1},
}

AMBIGUOUS_VERB = "charge"
ATTACK_LANDMARK = "storm"
BILLING_LANDMARK = "bill"

_PROFILES = {
    **_ATTACK_SUBJECTS,
    **_ATTACK_OBJECTS,
    **_BILLING_SUBJECTS,
    **_BILLING_OBJECTS,
}


def _sense_pairs(subjects: dict, objects: dict) -> list[tuple[str, str]]:
    return [(s, o) for s in subjects for o in objects]


class TwoSenseBenchmark(Value):
    _fields = ("space", "grammar", "lex", "dataset", "documents", "triples")

    def __init__(
        self, space: BasisRegistry, grammar: Lexicon, lex: LexicalSemantics,
        dataset: list[SentencePair], documents: list[list[str]], triples: list[TripleRecord],
    ):
        super().__init__(space, grammar, lex, dataset, documents, triples)

    def write_files(self, directory: str | os.PathLike) -> dict[str, str]:
        """Write corpus/basis/triples/lexicon/dataset files; returns the paths."""
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        paths = {
            "corpus": os.path.join(directory, "corpus.txt"),
            "basis": os.path.join(directory, "basis.txt"),
            "triples": os.path.join(directory, "triples.tsv"),
            "lexicon": os.path.join(directory, "lexicon.tsv"),
            "dataset": os.path.join(directory, "dataset.tsv"),
        }
        _write_lines(paths["corpus"], map(" ".join, self.documents))
        _write_lines(paths["basis"], self.space.labels)
        _write_lines(paths["triples"], (f"{t.subject}\t{t.verb}\t{t.obj}" for t in self.triples))
        save_lexicon(paths["lexicon"], self.grammar)
        save_dataset(paths["dataset"], self.dataset)
        return paths


def two_sense_benchmark() -> TwoSenseBenchmark:
    """Build the benchmark world from its tiny generated corpus."""
    space = BasisRegistry("N", _BASES)
    attack_pairs = _sense_pairs(_ATTACK_SUBJECTS, _ATTACK_OBJECTS)
    billing_pairs = _sense_pairs(_BILLING_SUBJECTS, _BILLING_OBJECTS)
    occurrences = {
        AMBIGUOUS_VERB: attack_pairs + billing_pairs,
        ATTACK_LANDMARK: list(attack_pairs),
        BILLING_LANDMARK: list(billing_pairs),
    }

    documents: list[list[str]] = []
    for noun, profile in _PROFILES.items():
        for base, count in profile.items():
            documents.extend([[noun, base]] * count)
    for verb, pairs in occurrences.items():
        for subject, obj in pairs:
            for noun in (subject, obj):
                for base, count in _PROFILES[noun].items():
                    documents.extend([[verb, base]] * count)

    targets = set(_PROFILES) | set(occurrences)
    acc = count_cooccurrence(documents, targets, space, window=2)
    vectors = raw_vectors(acc)
    tensors = {
        verb: build_verb_tensor([(vectors[s], vectors[o]) for s, o in pairs])
        for verb, pairs in occurrences.items()
    }
    lex = LexicalSemantics(space, vectors, tensors)
    grammar = standard_lexicon(nouns=sorted(_PROFILES), transitive=sorted(occurrences))

    triples = [
        TripleRecord(s, verb, o)
        for verb in (AMBIGUOUS_VERB, ATTACK_LANDMARK, BILLING_LANDMARK)
        for s, o in occurrences[verb]
    ]

    dataset: list[SentencePair] = []

    def pairs_for(sense_pairs: list[tuple[str, str]], same: str, cross: str, prefix: str) -> None:
        for k, (s, o) in enumerate(sense_pairs, 1):
            base = (s, AMBIGUOUS_VERB, o)
            dataset.append(
                SentencePair(f"{prefix}{k:02d}h", base, (s, same, o), 7.0, HIGH)
            )
            dataset.append(
                SentencePair(f"{prefix}{k:02d}l", base, (s, cross, o), 1.0, LOW)
            )

    pairs_for(attack_pairs, ATTACK_LANDMARK, BILLING_LANDMARK, "a")
    pairs_for(billing_pairs, BILLING_LANDMARK, ATTACK_LANDMARK, "b")

    return TwoSenseBenchmark(space, grammar, lex, dataset, documents, triples)
