"""Independent brute-force oracles shared by the unit and acceptance suites.

Everything here is deliberately naive (exhaustive search, definitional
loops), stays independent of the implementation paths it checks, and is
only ever used from tests.
"""

import itertools
import math
import os
from functools import lru_cache
from typing import Iterator

from gramsem.composition import LexicalSemantics
from gramsem.corpus import CountAccumulator
from gramsem.pregroup import (
    ADJECTIVE,
    DITRANSITIVE_VERB,
    INTRANSITIVE_VERB,
    NOUN,
    TRANSITIVE_VERB,
    AtomicType,
    cancels,
    parse_type,
)
from gramsem.errors import CompositionError, FileFormatError, SpaceMismatchError, UnknownLabelError
from gramsem.vectorspace import (
    BasisRegistry,
    SemTensor,
    _kept,
    atomic_write,
    load_tensor,
    load_vectors,
    open_text,
)

# --- exhaustive pregroup cancellation ---------------------------------------


@lru_cache(maxsize=None)
def _reachable(seq: tuple[AtomicType, ...]) -> frozenset[tuple[AtomicType, ...]]:
    """All irreducible residuals reachable by cancelling adjacent pairs in
    any order (later adjacencies arise as inner pairs are removed)."""
    out = set()
    reducible = False
    for k in range(len(seq) - 1):
        if cancels(seq[k], seq[k + 1]):
            reducible = True
            out |= _reachable(seq[:k] + seq[k + 2 :])
    if not reducible:
        return frozenset([seq])
    return frozenset(out)


def reachable_residuals(types) -> frozenset[tuple[AtomicType, ...]]:
    return _reachable(tuple(a for t in types for a in t.atoms))


CATEGORY_TYPES = {
    "N": parse_type(NOUN),
    "T": parse_type(TRANSITIVE_VERB),
    "I": parse_type(INTRANSITIVE_VERB),
    "A": parse_type(ADJECTIVE),
    "D": parse_type(DITRANSITIVE_VERB),
}


def category_strings(max_len: int):
    """Every word-category string up to the given length."""
    for length in range(1, max_len + 1):
        yield from map("".join, itertools.product(CATEGORY_TYPES, repeat=length))


# --- definitional rank statistics --------------------------------------------


def oracle_ranks(values):
    """Average rank by definition: a value occupying sorted positions
    p+1 .. p+k receives their mean, independent of input order."""
    out = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(smaller + (equal + 1) / 2)
    return out


def oracle_spearman(xs, ys):
    rx, ry = oracle_ranks(xs), oracle_ranks(ys)
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def keyed_by_tuples(t):
    """``t``'s entries keyed by index tuples at every order, as the validating
    constructor takes them: order 1 stores bare indices."""
    return t.entries if t.order > 1 else {(i,): w for i, w in t.entries.items()}


# --- Kronecker sums by their definition ----------------------------------------


def oracle_kronecker(vectors, space):
    """One Kronecker product entry by entry, each weight its factors'
    product taken left to right, through the validating constructor."""
    entries = {}
    for combo in itertools.product(*(v.entries.items() for v in vectors)):
        w = combo[0][1]
        for _, factor in combo[1:]:
            w = w * factor
        entries[tuple(i for i, _ in combo)] = w
    return SemTensor(space, len(vectors), entries)


def oracle_kronecker_sum(order, occurrences, space):
    """What the verb/adjective builders define: the running sum plus one
    product per occurrence (an order-1 occurrence is a bare vector), each
    step rebuilt through the validating constructor as ``tensor_add`` was."""
    total = SemTensor(space, order, {})
    for occurrence in occurrences:
        vectors = (occurrence,) if order == 1 else occurrence
        merged = dict(keyed_by_tuples(total))
        for key, w in keyed_by_tuples(oracle_kronecker(vectors, space)).items():
            merged[key] = merged.get(key, 0.0) + w
        total = SemTensor(space, order, merged)
    return total


# --- a verb tensor applied to its arguments, by definition -------------------------


def oracle_contract(verb, *args):
    """Every combination of argument entries, each argument in its own
    order: the tensor entry at their indices times their weights, left to
    right, through the validating constructor."""
    entries, weights = {}, keyed_by_tuples(verb)
    for combo in itertools.product(*(v.entries.items() for v in args)):
        key = tuple(i for i, _ in combo)
        if key in weights:
            w = weights[key]
            for _, a in combo:
                w = w * a
            entries[key] = w
    return SemTensor(verb.space, len(args), entries)


# --- padding a meaning into a larger space, by copying ------------------------------


def oracle_pad(t, order):
    """``t`` copied into the order-``order`` space by one comprehension, each
    entry's key followed by every tuple of the added axes, through the
    validating constructor; and its norm, the squares summed in sorted key
    order."""
    axes = list(itertools.product(range(len(t.space)), repeat=order - t.order))
    entries = {key + rest: w for key, w in sorted(keyed_by_tuples(t).items()) for rest in axes}
    padded = SemTensor(t.space, order, entries)
    return padded, math.sqrt(sum(w * w for _, w in sorted(padded.entries.items())))


# --- inner product, norm and cosine as written before, one tuple per entry ----------


def oracle_inner(v, w):
    """Products over the shared keys, summed in sorted key order."""
    common = v.entries.keys() & w.entries.keys()
    return sum(v.entries[k] * w.entries[k] for k in sorted(common))


def oracle_norm(v):
    """Squares summed in sorted key order, then the square root."""
    return math.sqrt(sum(w * w for _, w in sorted(v.entries.items())))


def oracle_cosine(v, w):
    """``cosine``'s steps through the two functions above: zero and equal
    operands by convention, and each operand scaled into [0.5, 1) by a power
    of two when a norm lies outside [2**-450, 2**450]."""
    if not v.entries or not w.entries:
        return 0.0
    if v.entries == w.entries:
        return 1.0
    nv, nw = oracle_norm(v), oracle_norm(w)
    if not (2.0**-450 <= nv <= 2.0**450 and 2.0**-450 <= nw <= 2.0**450):
        scaled = []
        for x in (v, w):
            shift = math.frexp(max(abs(a) for a in x.entries.values()))[1]
            entries = {k: math.ldexp(a, -shift) for k, a in keyed_by_tuples(x).items()}
            scaled.append(SemTensor(x.space, x.order, entries))
        v, w = scaled
        nv, nw = oracle_norm(v), oracle_norm(w)
    return max(-1.0, min(1.0, oracle_inner(v, w) / (nv * nw)))


# --- window counting by its definition ------------------------------------------


def oracle_count_cooccurrence(documents, targets, basis, window):
    """Window co-occurrence counts by definition, one neighbour at a time,
    each looked up in the basis on its own."""
    target_set = set(targets)
    acc = CountAccumulator(basis)
    for tokens in documents:
        acc.doc_count += 1
        seen = set()
        for position, token in enumerate(tokens):
            if token in basis:
                seen.add(basis.index(token))
            if token not in target_set:
                continue
            lo = max(0, position - window)
            hi = min(len(tokens), position + window + 1)
            for neighbour in range(lo, hi):
                if neighbour == position:
                    continue
                context = tokens[neighbour]
                if context in basis:
                    acc.bump(token, basis.index(context))
        for i in seen:
            acc.doc_frequency[i] = acc.doc_frequency.get(i, 0) + 1
    return acc


# --- the eager weightings ------------------------------------------------------
# Copied from the library as it was before a target's vector was weighed when
# it is looked up: every vector is built at the call.  Only the public names
# gained the ``oracle_`` prefix.


def oracle_raw_vectors(acc: CountAccumulator) -> dict[str, SemTensor]:
    """Raw counts as vector weights."""
    return {
        target: SemTensor._trusted(acc.space, 1, _kept({i: float(c) for i, c in row.items()}))
        for target, row in acc.counts.items()
    }


def oracle_tfidf(acc: CountAccumulator) -> dict[str, SemTensor]:
    """TF/IDF weighting: count * ln(doc_count / doc_frequency).

    The natural-log variant is used throughout so reported numbers are
    reproducible; a basis word seen in every document weighs zero, and one
    never seen at all also weighs zero.
    """
    if acc.doc_count < 1:
        raise ValueError("tfidf needs at least one counted document")
    idf = {
        i: math.log(acc.doc_count / df) if df > 0 else 0.0
        for i, df in acc.doc_frequency.items()
    }
    out: dict[str, SemTensor] = {}
    for target, row in acc.counts.items():
        weights = {i: c * idf.get(i, 0.0) for i, c in row.items()}
        out[target] = SemTensor._trusted(acc.space, 1, _kept(weights))
    return out


# --- the row-by-row file loaders -------------------------------------------
# Copied from the library as it was before its loaders read a row with
# fixed-width unpacking: a generator over the data lines, a checked weight
# per row and a list-built key.  Only the two public names gained the
# ``oracle_`` prefix.


def _data_lines(path: str | os.PathLike, space: BasisRegistry) -> Iterator[tuple[int, str]]:
    """Check the '#space' header against ``space``, then yield each later
    non-empty line, comments included, with its line number."""
    with open_text(path) as handle:
        header = handle.readline().rstrip("\n").split("\t")
        if header != ["#space", space.name, space.kind]:
            raise FileFormatError(
                f"{path}:1: header {' '.join(header)!r} is not '#space {space.name} {space.kind}'"
            )
        for lineno, line in enumerate(handle, 2):
            line = line.rstrip("\n")
            if line:
                yield lineno, line


def _weight(text: str, path: str | os.PathLike, lineno: int) -> float:
    try:
        w = float(text)
    except ValueError:
        raise FileFormatError(f"{path}:{lineno}: weight {text!r} is not a number") from None
    if not math.isfinite(w):
        raise FileFormatError(f"{path}:{lineno}: non-finite weight {text!r}")
    return w


def oracle_load_tensor(path: str | os.PathLike, space: BasisRegistry) -> SemTensor:
    """Read a tensor file, checking each row once.  The order is the '#order'
    line's, else the first row's; a later '#order' line must agree."""
    order = None
    index = space._index
    entries: dict[tuple[int, ...], float] = {}
    zero = False
    for lineno, line in _data_lines(path, space):
        *labels, text = line.split("\t")
        if line[0] == "#":
            if labels == ["#order"]:
                if order is None and text in ("1", "2", "3"):
                    order = int(text)
                elif order is None or text != str(order):
                    raise FileFormatError(f"{path}:{lineno}: order {text} is not {order or '1-3'}")
            continue
        if order is None and 1 <= len(labels) <= 3:
            order = len(labels)
        if len(labels) != order:
            raise FileFormatError(f"{path}:{lineno}: expected {order or '1-3'} labels and a weight")
        key = tuple([index.get(label, -1) for label in labels])
        if -1 in key:
            label = labels[key.index(-1)]
            raise UnknownLabelError(f"{path}:{lineno}: label {label!r} not in space {space.name!r}")
        if key in entries:
            raise FileFormatError(f"{path}:{lineno}: duplicate entry {labels!r}")
        w = entries[key] = _weight(text, path, lineno)
        if not w:
            zero = True
    if order is None:
        raise FileFormatError(f"{path}: cannot infer order of an empty tensor file")
    if zero:
        entries = {k: w for k, w in entries.items() if w}
    return SemTensor(space, order, entries)  # order 1 keeps each key's one index


def oracle_load_vectors(path: str | os.PathLike, space: BasisRegistry) -> dict[str, SemTensor]:
    """Read a ``word<TAB>label<TAB>weight`` collection, checking each row once."""
    index = space._index
    weights: dict[str, dict[int, float]] = {}
    zero = False
    for lineno, line in _data_lines(path, space):
        if line[0] == "#":
            continue
        row = line.split("\t")
        if len(row) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected 'word<TAB>label<TAB>weight'")
        word, label, text = row
        i = index.get(label)
        if i is None:
            raise UnknownLabelError(f"{path}:{lineno}: label {label!r} not in space {space.name!r}")
        per_word = weights.get(word)
        if per_word is None:
            per_word = weights[word] = {}
        elif i in per_word:
            raise FileFormatError(f"{path}:{lineno}: duplicate entry for {word!r}/{label!r}")
        w = per_word[i] = _weight(text, path, lineno)
        if not w:
            zero = True
    if zero:
        weights = {word: {i: w for i, w in ws.items() if w} for word, ws in weights.items()}
    return {word: SemTensor._trusted(space, 1, ws) for word, ws in weights.items()}


# --- the row-by-row writers -------------------------------------------------
# Copied from the library as it was before its writers ranked the labels once:
# each value's ``labelled()`` dict sorted by label, one ``write`` per row.
# Only the public names gained the ``oracle_`` prefix.


def _write_header(handle, space: BasisRegistry) -> None:
    handle.write(f"#space\t{space.name}\t{space.kind}\n")


def oracle_save_tensor(path: str | os.PathLike, t: SemTensor) -> None:
    with atomic_write(path) as handle:
        _write_header(handle, t.space)
        handle.write(f"#order\t{t.order}\n")
        for labels, w in sorted(t.labelled().items()):
            handle.write("\t".join((labels,) if t.order == 1 else labels) + f"\t{w!r}\n")


def oracle_save_vectors(
    path: str | os.PathLike, vectors: dict[str, SemTensor], space: BasisRegistry
) -> None:
    """Write a word -> vector collection as rows ``word<TAB>label<TAB>weight``.
    A word starting with '#' is refused: its rows would read as comments."""
    with atomic_write(path) as handle:
        _write_header(handle, space)
        for word in sorted(vectors):
            if word[:1] == "#":
                raise ValueError(f"word {word!r} starts with '#'")
            v = vectors[word]
            if v.space != space:
                raise SpaceMismatchError(f"vector for {word!r} is not in space {space.name!r}")
            for label, w in sorted(v.labelled().items()):
                handle.write(f"{word}\t{label}\t{w!r}\n")


# --- the eager semantics loader ---------------------------------------------
# Copied from the library as it was before a tensor file was read on first
# use: every file under verbs/ and adjectives/ is parsed and checked here.
# Only the public name gained the ``oracle_`` prefix.


def oracle_load_semantics(directory: str | os.PathLike, space: BasisRegistry) -> LexicalSemantics:
    directory = os.fspath(directory)
    vectors = load_vectors(os.path.join(directory, "nouns.tsv"), space)
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
