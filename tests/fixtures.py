"""Shared hand-specified fixture data for the test suite.

Two small worlds are used throughout:

* a structured 5-base property space with five noun vectors, a transitive
  verb matrix for ``chase`` and a diagonal adjective ``fluffy``;
* a plain 4-base space with four noun vectors and the two-sentence corpus
  for the verb ``show``, together with the reference matrix the build is
  expected to reproduce (three reference cells are known bad copies; the
  recomputed values are authoritative and the deltas are pinned in the
  acceptance suite).
"""

import os

from gramsem.vectorspace import (
    STRUCTURED,
    BasisRegistry,
    SemTensor,
    WeightedVector,
    save_tensor,
    save_vectors,
)

# --- structured toy space ---------------------------------------------------

TOY_LABELS = ("arg-fluffy", "arg-ferocious", "obj-buys", "arg-shrewd", "arg-valuable")
TOY_SPACE = BasisRegistry("toy", TOY_LABELS, STRUCTURED)

TOY_NOUNS = {
    "bankers": (0, 4, 0, 6, 0),
    "cats": (7, 1, 4, 3, 1),
    "dogs": (3, 6, 2, 1, 2),
    "stock": (0, 0, 7, 0, 8),
    "kittens": (2, 0, 0, 1, 0),
}

CHASE_MATRIX = (
    (1, 0, 0, 0, 0),
    (7, 1, 2, 3, 1),
    (0, 0, 0, 0, 0),
    (2, 0, 1, 0, 1),
    (1, 0, 0, 0, 0),
)

FLUFFY_DIAGONAL = (9, 3, 4, 2, 2)


def toy_vector(name: str) -> WeightedVector:
    weights = TOY_NOUNS[name]
    return WeightedVector(TOY_SPACE, {i: float(w) for i, w in enumerate(weights)})


def toy_chase() -> SemTensor:
    entries = {
        (i, j): float(w)
        for i, row in enumerate(CHASE_MATRIX)
        for j, w in enumerate(row)
    }
    return SemTensor(TOY_SPACE, 2, entries)


def toy_fluffy() -> SemTensor:
    return SemTensor(TOY_SPACE, 1, {(i,): float(w) for i, w in enumerate(FLUFFY_DIAGONAL)})


# --- plain sample space -----------------------------------------------------

SAMPLE_LABELS = ("far", "room", "scientific", "elect")
SAMPLE_SPACE = BasisRegistry("N", SAMPLE_LABELS)

SAMPLE_NOUNS = {
    "table": (6.6, 27.0, 0.0, 0.0),
    "map": (5.6, 7.4, 5.4, 0.0),
    "result": (7.0, 0.99, 13.0, 4.2),
    "location": (5.9, 7.3, 6.1, 0.0),
}

# The verb occurs in exactly two sentences: map/location and table/result.
SHOW_TRIPLES = (("map", "show", "location"), ("table", "show", "result"))

# Reference matrix for the built ``show`` tensor, rows/columns in basis
# order.  Cells (room, elect), (scientific, far) and (scientific, room) do
# not agree with recomputation from the noun vectors (bad copies in the
# reference); every other cell matches within 0.01.
SHOW_REFERENCE = (
    (79.24, 47.41, 119.96, 27.72),
    (232.66, 80.75, 396.14, 113.2),
    (32.94, 31.86, 32.94, 0.0),
    (0.0, 0.0, 0.0, 0.0),
)
SHOW_REFERENCE_BAD_CELLS = {(1, 3), (2, 0), (2, 1)}


def sample_vector(name: str) -> WeightedVector:
    weights = SAMPLE_NOUNS[name]
    return WeightedVector(SAMPLE_SPACE, {i: w for i, w in enumerate(weights)})


def show_occurrences() -> list[tuple[WeightedVector, WeightedVector]]:
    return [(sample_vector(s), sample_vector(o)) for s, _, o in SHOW_TRIPLES]


def show_oracle_entry(i: int, j: int) -> float:
    """Scalar brute-force value of the built verb tensor at one cell."""
    total = 0.0
    for subject, _, obj in SHOW_TRIPLES:
        total += SAMPLE_NOUNS[subject][i] * SAMPLE_NOUNS[obj][j]
    return total


# --- semantics directories ----------------------------------------------------


def save_semantics(directory, lex, adjectives=()) -> None:
    """Write ``lex`` in the layout ``load_semantics`` reads: nouns.tsv, and each
    tensor under adjectives/ if ``adjectives`` names it, else under verbs/."""
    for sub in ("verbs", "adjectives"):
        os.makedirs(os.path.join(directory, sub), exist_ok=True)
    save_vectors(os.path.join(directory, "nouns.tsv"), lex.vectors, lex.space)
    for word, tensor in sorted(lex.tensors.items()):
        sub = "adjectives" if word in adjectives else "verbs"
        save_tensor(os.path.join(directory, sub, f"{word}.tsv"), tensor)
