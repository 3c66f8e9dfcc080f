#!/usr/bin/env python3
"""Counting vectors out of raw text and comparing across sentence shapes.

Plain spaces count basis words inside a token window around each target;
structured spaces count dependency properties from pre-parsed records.
TF/IDF downweights context words that appear in most documents.  Meanings
of different arity (say an intransitive sentence against a transitive one)
are compared after padding the smaller space with the superposition of all
basis vectors, which leaves same-order cosines untouched.
"""

from gramsem import (
    BasisRegistry,
    TripleRecord,
    align_orders,
    contract,
    cosine,
    count_cooccurrence,
    count_properties,
    raw_vectors,
    tfidf,
)
from gramsem.corpus import build_intransitive_tensor, build_verb_tensor
from gramsem.vectorspace import STRUCTURED

print("=" * 60)
print("WINDOW CO-OCCURRENCE COUNTS")
print("=" * 60)
documents = [
    "the hound chased the hare across the field".split(),
    "a hound slept by the field all day".split(),
    "the hare nibbled grass in the field".split(),
    "investors chased returns all day".split(),
]
space = BasisRegistry("ctx", ("field", "day", "grass", "returns"))
acc = count_cooccurrence(documents, ["hound", "hare", "investors"], space, window=4)
print(f"  {acc.doc_count} documents; document frequencies: "
      f"{{ {', '.join(f'{space.label(i)}: {df}' for i, df in sorted(acc.doc_frequency.items()))} }}")
for word, vector in raw_vectors(acc).items():
    print(f"  raw   {word:10s} {vector.labelled()}")
for word, vector in tfidf(acc).items():
    rounded = {k: round(v, 3) for k, v in vector.labelled().items()}
    print(f"  tfidf {word:10s} {rounded}")
print("  ('field' shows up in three of four documents, so TF/IDF mutes it)")
print()

print("=" * 60)
print("PROPERTY COUNTS FROM PRE-PARSED RECORDS")
print("=" * 60)
props = BasisRegistry("props", ("subj-chase", "obj-chase", "arg-swift"), STRUCTURED)
records = [
    TripleRecord("hound", "chase", "hare"),
    TripleRecord("hound", "chase", "ball"),
    TripleRecord("fox", "chase", "hare"),
]
adjectives = [("swift", "hound"), ("swift", "fox")]
prop_counts = count_properties(records, adjectives, ["hound", "hare", "fox"], props)
for word in ("hound", "hare", "fox"):
    print(f"  {word:6s} {raw_vectors(prop_counts)[word].labelled()}")
print()

print("=" * 60)
print("EMBEDDING ACROSS SENTENCE SPACES")
print("=" * 60)
vectors = raw_vectors(acc)
sleep = build_intransitive_tensor([vectors["hound"]])
chase = build_verb_tensor([(vectors["hound"], vectors["hare"]),
                           (vectors["investors"], vectors["hare"])])
sv = contract(sleep, vectors["hound"])
svo = contract(chase, vectors["hound"], vectors["hare"])
a, b = align_orders(sv, svo)
print(f"  'hound sleep' lives in {sv.sentence_space.value}, "
      f"'hound chase hare' in {svo.sentence_space.value}")
print(f"  after padding both sit in {a.sentence_space.value}; "
      f"cosine = {cosine(a.value, b.value):.3f}")
