"""Count-based construction of noun vectors and verb/adjective tensors.

Noun vectors come from either plain co-occurrence counts (a basis word seen
within a token window of the target) or structured dependency-property
counts (the target was the subject of some verb, object of some verb, or
argument of some adjective).  Relational word tensors are Kronecker sums of
argument vectors over the word's corpus occurrences.

Input text is assumed pre-tokenized and lowercased, one document per line;
triples and adjective-argument records arrive pre-parsed.
"""

from __future__ import annotations

import math
from collections import _count_elements, defaultdict
from collections.abc import Mapping
from typing import Callable, Iterable, Iterator, Sequence

from ._value import Value
from .errors import FileFormatError
from .vectorspace import (
    PLAIN,
    STRUCTURED,
    BasisRegistry,
    SemTensor,
    _is_rel_word,
    _kept,
    _kronecker_sum,
    _read_records,
    open_text,
)


class TripleRecord(Value):
    """One verb occurrence: subject, verb, optional direct/indirect object."""

    _fields = ("subject", "verb", "obj", "iobj")

    def __init__(self, subject: str, verb: str, obj: str | None = None, iobj: str | None = None):
        if not subject or not verb:
            raise ValueError("triple needs a non-empty subject and verb")
        if iobj is not None and obj is None:
            raise ValueError("a triple with an indirect object needs a direct object")
        super().__init__(subject, verb, obj, iobj)


class CountAccumulator(Value):
    """Mutable counting state: per-target basis counts plus document frequencies.

    The only mutable stage of the pipeline.
    """

    _fields = ("space", "counts", "doc_frequency", "doc_count")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, space: BasisRegistry, counts: dict[str, dict[int, int]] | None = None,
        doc_frequency: dict[int, int] | None = None, doc_count: int = 0,
    ):
        super().__init__(space, {} if counts is None else counts,
                         {} if doc_frequency is None else doc_frequency, doc_count)

    def bump(self, target: str, basis_index: int) -> None:
        row = self.counts.setdefault(target, {})
        row[basis_index] = row.get(basis_index, 0) + 1

    def count(self, target: str, label: str) -> int:
        return self.counts.get(target, {}).get(self.space.index(label), 0)


def count_cooccurrence(
    documents: Iterable[Sequence[str]],
    targets: Iterable[str] | None,
    basis: BasisRegistry,
    window: int = 5,
) -> CountAccumulator:
    """Count basis words within ``window`` tokens of each target occurrence.

    Windows never cross document boundaries; the occurrence position itself
    is excluded.  Tokens that are neither targets nor basis words are
    ignored.  Document frequencies count, per basis word, the number of
    documents it occurs in at all.  With ``targets`` None every token is a
    target, and one that saw no basis word keeps an empty row.
    """
    if basis.kind != PLAIN:
        raise ValueError("co-occurrence counting needs a plain basis")
    if window < 1:
        raise ValueError("window must be >= 1")
    target_set = None if targets is None else set(targets)
    index_of = basis._index.get
    rows: defaultdict[str, dict] = defaultdict(dict)
    acc = CountAccumulator(basis)
    for tokens in documents:
        acc.doc_count += 1
        # One lookup per token; None marks a token outside the basis and is
        # counted like any index, then dropped once at the end.
        ids = list(map(index_of, tokens))
        _count_elements(acc.doc_frequency, set(ids))
        for position, token in enumerate(tokens):
            if target_set is None or token in target_set:
                lo = position - window if position > window else 0
                span = ids[lo:position + window + 1]
                del span[position - lo]
                _count_elements(rows[token], span)  # Counter.update's C core, minus its frame
    for token, row in rows.items():
        row.pop(None, None)
        if row or target_set is None:
            acc.counts[token] = row
    acc.doc_frequency.pop(None, None)
    return acc


def count_properties(
    triples: Iterable[TripleRecord],
    adjective_pairs: Iterable[tuple[str, str]],
    targets: Iterable[str],
    basis: BasisRegistry,
) -> CountAccumulator:
    """Count dependency properties on a structured basis.

    A target scores on ``subj-V`` when it is the subject of verb V, on
    ``obj-V`` (``iobj-V``) as its direct (indirect) object, and on ``arg-A``
    as the argument of adjective A.  Property labels missing from the basis
    are skipped.  Each record counts as one document for frequencies.
    """
    if basis.kind != STRUCTURED:
        raise ValueError("property counting needs a structured basis")
    target_set = set(targets)
    acc = CountAccumulator(basis)

    def record(events: list[tuple[str | None, str]]) -> None:
        acc.doc_count += 1
        seen: set[int] = set()
        for word, label in events:
            if label not in basis:
                continue
            i = basis.index(label)
            seen.add(i)
            if word is not None and word in target_set:
                acc.bump(word, i)
        for i in seen:
            acc.doc_frequency[i] = acc.doc_frequency.get(i, 0) + 1

    for triple in triples:
        events = [(triple.subject, f"subj-{triple.verb}")]
        if triple.obj is not None:
            events.append((triple.obj, f"obj-{triple.verb}"))
        if triple.iobj is not None:
            events.append((triple.iobj, f"iobj-{triple.verb}"))
        record(events)
    for adjective, argument in adjective_pairs:
        record([(argument, f"arg-{adjective}")])
    return acc


class _Weighted(Mapping):
    """Each target's vector, weighed from its count row when it is looked up.
    A lookup reads the accumulator as it is at that moment."""

    def __init__(self, acc: CountAccumulator, weigh: Callable[[dict], dict]):
        self.acc, self.weigh = acc, weigh

    def __getitem__(self, target: str) -> SemTensor:
        return SemTensor._trusted(self.acc.space, 1, _kept(self.weigh(self.acc.counts[target])))

    def __iter__(self) -> Iterator[str]:
        return iter(self.acc.counts)

    def __len__(self) -> int:
        return len(self.acc.counts)


def raw_vectors(acc: CountAccumulator) -> Mapping[str, SemTensor]:
    """Raw counts as vector weights."""
    return _Weighted(acc, lambda row: {i: float(c) for i, c in row.items()})


def tfidf(acc: CountAccumulator) -> Mapping[str, SemTensor]:
    """TF/IDF weighting: count * ln(doc_count / doc_frequency).

    The natural-log variant is used throughout so reported numbers are
    reproducible; a basis word seen in every document weighs zero, and one
    never seen at all also weighs zero.  The idf table is built here, from
    the document frequencies as they are now.
    """
    if acc.doc_count < 1:
        raise ValueError("tfidf needs at least one counted document")
    idf = {
        i: math.log(acc.doc_count / df) if df > 0 else 0.0
        for i, df in acc.doc_frequency.items()
    }
    return _Weighted(acc, lambda row: {i: c * idf.get(i, 0.0) for i, c in row.items()})


def build_verb_tensor(
    occurrences: Sequence[tuple[SemTensor, SemTensor]],
    *,
    space: BasisRegistry | None = None,
) -> SemTensor:
    """Transitive verb weights: the Kronecker-product sum subj_k (x) obj_k."""
    return _kronecker_sum(2, occurrences, space)


def build_ditransitive_tensor(
    occurrences: Sequence[tuple[SemTensor, SemTensor, SemTensor]],
    *,
    space: BasisRegistry | None = None,
) -> SemTensor:
    """Ditransitive verb weights: sum of subj (x) obj (x) iobj products."""
    return _kronecker_sum(3, occurrences, space)


def build_intransitive_tensor(
    subjects: Sequence[SemTensor], *, space: BasisRegistry | None = None
) -> SemTensor:
    """Intransitive verb weights: the order-1 sum of its subject vectors."""
    return _kronecker_sum(1, subjects, space)


def build_adjective_tensor(
    arguments: Sequence[SemTensor], *, space: BasisRegistry | None = None
) -> SemTensor:
    """Adjective weights in diagonal form: the order-1 sum of argument vectors."""
    return _kronecker_sum(1, arguments, space)


# ---------------------------------------------------------------------------
# Readers.  Corpus: one whitespace-tokenized document per line.  Triples:
# TSV subject/verb/object(/indirect object), empty object = intransitive.
# Adjectives: TSV adjective/argument.  Basis: one label per line.
# ---------------------------------------------------------------------------


class _Documents:
    """A corpus file's documents, read from the file again at each pass."""

    def __init__(self, path):
        self.path = path

    def __iter__(self) -> Iterator[list[str]]:
        with open_text(self.path) as handle:
            for line in handle:
                tokens = line.split()
                if tokens:
                    yield tokens


def read_corpus(path) -> Iterable[list[str]]:
    return _Documents(path)


def read_triples(path) -> list[TripleRecord]:
    return _read_records(
        path, 2, 4, "expected 2-4 tab-separated fields",
        lambda subject, verb, obj, iobj: TripleRecord(subject, verb, obj or None, iobj or None),
    )


def read_adjective_pairs(path) -> list[tuple[str, str]]:
    def pair(adjective: str, argument: str) -> tuple[str, str]:
        if adjective and argument:
            return adjective, argument
        raise ValueError("expected 'adjective<TAB>argument'")

    return _read_records(path, 2, 2, "expected 'adjective<TAB>argument'", pair)


def read_basis(path, name: str | None = None, kind: str = PLAIN) -> BasisRegistry:
    first_line: dict[str, int] = {}  # label -> the line it is on, in file order
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, 1):
            label = line.strip()
            if not label or label.startswith("#"):
                continue
            if "\t" in label:  # text mode split the file at \n and \r; rows would split here
                raise FileFormatError(f"{path}:{lineno}: basis label {label!r} holds a tab")
            if label in first_line:
                raise FileFormatError(
                    f"{path}:{lineno}: duplicate basis label {label!r},"
                    f" first on line {first_line[label]}"
                )
            if kind == STRUCTURED and not _is_rel_word(label):
                raise FileFormatError(
                    f"{path}:{lineno}: structured label must have the form 'rel-word': {label!r}"
                )
            first_line[label] = lineno
    if name is None:
        import os

        name = os.path.splitext(os.path.basename(path))[0]
    return BasisRegistry(name, tuple(first_line), kind)
