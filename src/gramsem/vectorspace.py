"""Sparse weighted vectors and low-order tensors over a named basis space.

Vectors and tensors are coordinate-sparse: only nonzero weights are stored,
keyed by dense basis indices (or index tuples).  All values are immutable
after construction and every operation here is a pure function, so they can
be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
import os
import tempfile
from contextlib import contextmanager
from itertools import chain, product, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

from ._value import Value
from .errors import FileFormatError, GramsemError, SpaceMismatchError, UnknownLabelError

PLAIN = "plain"
STRUCTURED = "structured"


class BasisRegistry(Value):
    """Bijection between basis labels and dense indices for one space.

    ``kind`` is ``"plain"`` for bare-word bases and ``"structured"`` for
    relation-annotated bases, whose labels must look like ``rel-word``
    (e.g. ``arg-fluffy``, ``subj-chase``, ``obj-buy``).
    """

    _fields = ("name", "labels", "kind")  # not the derived ``_index``

    def __init__(self, name: str, labels: Sequence[str], kind: str = PLAIN):
        if not name:
            raise ValueError("space name must be non-empty")
        if kind not in (PLAIN, STRUCTURED):
            raise ValueError(f"unknown basis kind: {kind!r}")
        labels = tuple(labels)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "kind", kind)
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not label:
                raise ValueError("basis labels must be non-empty")
            if label[0] == "#":  # files read a row that starts with '#' as a comment
                raise ValueError(f"basis label {label!r} starts with '#'")
            if label in index:
                raise ValueError(f"duplicate basis label: {label!r}")
            if kind == STRUCTURED and not _is_rel_word(label):
                raise ValueError(f"structured label must have the form 'rel-word': {label!r}")
            index[label] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in space {self.name!r}") from None

    def label(self, i: int) -> str:
        return self.labels[i]


def _is_rel_word(label: str) -> bool:
    """Whether ``label`` has a structured label's ``rel-word`` form."""
    return 0 < label.find("-") < len(label) - 1


def _as_index(i, space: BasisRegistry) -> int:
    try:
        i = operator.index(i)
    except TypeError:
        raise ValueError(f"index {i!r} is not an integer") from None
    if not 0 <= i < len(space):
        raise ValueError(f"index {i} out of range for space {space.name!r}")
    return i


def _nonzero(entries: dict) -> dict:
    """``entries`` without its zero weights: the dict itself if it has none."""
    if 0.0 in entries.values():
        return {k: w for k, w in entries.items() if w}
    return entries


def _kept(entries: dict) -> dict:
    """Check weights the library just computed from valid operands: reject
    non-finite ones, drop zeros.  The keys are trusted, not checked again."""
    if not all(map(math.isfinite, entries.values())):
        key = next(k for k, w in entries.items() if not math.isfinite(w))
        raise ValueError(f"non-finite weight {entries[key]!r} at {key}")
    return _nonzero(entries)


class WeightedVector(Value):
    """Sparse map basis-index -> weight, bound to one space.

    Treat instances as immutable values; build modified copies through the
    module-level operations instead of mutating ``entries``.
    """

    _fields = ("space", "entries")

    def __init__(self, space: BasisRegistry, entries: Mapping[int, float]):
        clean: dict[int, float] = {}
        for i, w in entries.items():
            i = _as_index(i, space)
            w = float(w)
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w!r} at index {i}")
            if w != 0.0:
                clean[i] = w
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _trusted(cls, space: BasisRegistry, entries: dict[int, float]) -> "WeightedVector":
        """Wrap a dict the library just built, keyed by indices valid in
        ``space``, with finite nonzero float weights; nothing is re-checked,
        so it never takes a mapping from a caller.  Set one by one, the
        attributes leave the instance dict unbuilt: ~150 bytes less (CPython 3.11)."""
        v = object.__new__(cls)
        object.__setattr__(v, "space", space)
        object.__setattr__(v, "entries", entries)
        return v

    @classmethod
    def basis_vector(cls, space: BasisRegistry, label: str) -> "WeightedVector":
        return cls(space, {space.index(label): 1.0})

    def get(self, i: int) -> float:
        return self.entries.get(i, 0.0)

    def weight(self, label: str) -> float:
        return self.entries.get(self.space.index(label), 0.0)

    def labelled(self) -> dict[str, float]:
        return {self.space.label(i): w for i, w in sorted(self.entries.items())}

    def to_dense(self) -> np.ndarray:
        return SemTensor.from_vector(self).to_dense()

    def is_zero(self) -> bool:
        return not self.entries


class SemTensor(Value):
    """Sparse order-1/2/3 tensor over a space, stored as coordinate entries.

    Order-2 tensors hold transitive-verb (and general adjective) weights,
    order-3 ditransitive weights, order-1 the diagonal form used for
    intransitive verbs and adjectives.
    """

    _fields = ("space", "order", "entries")

    def __init__(self, space: BasisRegistry, order: int, entries: Mapping[tuple[int, ...], float]):
        if order not in (1, 2, 3):
            raise ValueError(f"tensor order must be 1, 2 or 3, got {order}")
        clean: dict[tuple[int, ...], float] = {}
        for key, w in entries.items():
            key = tuple(_as_index(i, space) for i in key)
            if len(key) != order:
                raise ValueError(f"index tuple {key} does not match order {order}")
            w = float(w)
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w!r} at {key}")
            if w != 0.0:
                clean[key] = w
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _trusted(cls, space: BasisRegistry, order: int, entries: dict) -> "SemTensor":
        """As ``WeightedVector._trusted``, keys being ``order``-tuples of indices."""
        t = object.__new__(cls)
        t.__dict__.update(space=space, order=order, entries=entries)
        return t

    @classmethod
    def from_vector(cls, v: WeightedVector) -> "SemTensor":
        """View a vector as an order-1 tensor over the same space."""
        return cls._trusted(v.space, 1, {(i,): w for i, w in v.entries.items()})

    def get(self, key: tuple[int, ...]) -> float:
        return self.entries.get(tuple(key), 0.0)

    def to_vector(self) -> WeightedVector:
        if self.order != 1:
            raise ValueError("only order-1 tensors convert to vectors")
        return WeightedVector._trusted(self.space, {k[0]: w for k, w in self.entries.items()})

    def to_dense(self) -> np.ndarray:
        try:
            import numpy as np  # the only numpy use: kept off every import path
        except ImportError:
            raise ImportError("to_dense needs numpy: pip install 'gramsem[test]'") from None

        out = np.zeros((len(self.space),) * self.order)
        for key, w in self.entries.items():
            out[key] = w
        return out

    def labelled(self) -> dict[tuple[str, ...], float]:
        return {
            tuple(self.space.label(i) for i in key): w
            for key, w in sorted(self.entries.items())
        }

    def is_zero(self) -> bool:
        return not self.entries


Sparse = WeightedVector | SemTensor


def _check_same_space(a: Sparse, b: Sparse) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(
            f"operands live in different spaces: {a.space.name!r} vs {b.space.name!r}"
        )
    a_order = a.order if isinstance(a, SemTensor) else None
    b_order = b.order if isinstance(b, SemTensor) else None
    if a_order != b_order:
        raise SpaceMismatchError(f"operand orders differ: {a_order} vs {b_order}")


def _like(v: Sparse, entries: dict) -> Sparse:
    """A value of ``v``'s type, space and order holding freshly computed ``entries``."""
    entries = _kept(entries)
    if isinstance(v, SemTensor):
        return SemTensor._trusted(v.space, v.order, entries)
    return WeightedVector._trusted(v.space, entries)


def add(v: Sparse, w: Sparse) -> Sparse:
    """Component-wise sum of two vectors, or tensors of equal order, in one space."""
    _check_same_space(v, w)
    total = dict(v.entries)
    for k, x in w.entries.items():
        total[k] = total.get(k, 0.0) + x
    return _like(v, total)


def pointwise_mul(v: Sparse, w: Sparse) -> Sparse:
    """Component-wise product; only indices present in both survive."""
    _check_same_space(v, w)
    small, big = (v.entries, w.entries) if len(v.entries) <= len(w.entries) else (w.entries, v.entries)
    return _like(v, {i: a * big[i] for i, a in small.items() if i in big})


def scale(v: Sparse, factor: float) -> Sparse:
    """Multiply every weight by ``factor``."""
    factor = float(factor)
    return _like(v, {k: w * factor for k, w in v.entries.items()})


def inner(v: Sparse, w: Sparse) -> float:
    """Sum of products over shared coordinates (the cup contraction).

    Iterates shared keys in sorted order so the result is deterministic and
    exactly symmetric in its arguments.
    """
    _check_same_space(v, w)
    common = v.entries.keys() & w.entries.keys()
    return sum(v.entries[k] * w.entries[k] for k in sorted(common))


def norm(v: Sparse) -> float:
    """Euclidean length sqrt(<v, v>), computed once per value and kept with it."""
    length = v.__dict__.get("_norm")
    if length is None:
        length = v.__dict__["_norm"] = math.sqrt(sum(w * w for _, w in sorted(v.entries.items())))
    return length


def _padded(t: SemTensor, order: int) -> SemTensor:
    """``t`` in the order-``order`` space, its m added axes spanning the d basis
    indices.  Built in sorted key order, the copy repeats each weight d**m times,
    so its norm is summed from ``t``: bitwise ``norm``'s, as sqrt(d**m) * |t| is not."""
    d, m = len(t.space), order - t.order
    axes = [range(d)] * m
    items = sorted(t.entries.items())
    entries: dict[tuple[int, ...], float] = {}
    for key, w in items:
        entries.update(zip(product(*[(i,) for i in key], *axes), repeat(w)))
    padded = SemTensor._trusted(t.space, order, entries)
    squares = chain.from_iterable(repeat(w * w, d**m) for _, w in items)
    padded.__dict__["_norm"] = math.sqrt(sum(squares))
    return padded


def cosine(v: Sparse, w: Sparse) -> float:
    """Inner product normalized by the lengths, in [-1, 1].

    Tensors of equal order over the same space are compared through their
    flattened coordinate form.  If either operand has zero length the
    similarity is 0 by convention: a vanished sentence vector carries no
    evidence, and comparisons against it must not abort an evaluation run.
    A norm outside [2**-450, 2**450] may hide a squared weight rounded to
    inf or 0, so each operand is then scaled by the power of two that brings
    its largest weight into [0.5, 1): exactly, so the score does not change.
    """
    _check_same_space(v, w)
    if not v.entries or not w.entries:
        return 0.0
    if v.entries == w.entries:
        return 1.0
    nv, nw = norm(v), norm(w)
    if not (2.0**-450 <= nv <= 2.0**450 and 2.0**-450 <= nw <= 2.0**450):
        scaled = []
        for x in (v, w):
            shift = math.frexp(max(map(abs, x.entries.values())))[1]
            scaled.append(_like(x, {k: math.ldexp(a, -shift) for k, a in x.entries.items()}))
        v, w = scaled
        nv, nw = norm(v), norm(w)
    value = inner(v, w) / (nv * nw)
    return max(-1.0, min(1.0, value))


def _kronecker_sum(
    order: int, occurrences: Sequence, space: BasisRegistry | None = None
) -> SemTensor:
    """Sum of the Kronecker products of each occurrence's ``order`` vectors (a
    bare vector if ``order`` is 1), over ``space``, else the first occurrence's.

    Sums in place, each key's products in occurrence order and each product
    left to right: bitwise the fold of ``add`` over single products.
    """
    if space is None and occurrences:
        space = (occurrences[0] if order == 1 else occurrences[0][0]).space
    if space is None:
        raise ValueError("an empty occurrence list needs an explicit space")
    total: dict[tuple[int, ...], float] = {}
    get = total.get
    for occurrence in occurrences:
        vectors = (occurrence,) if order == 1 else occurrence
        if len(vectors) != order or any(
            not isinstance(v, WeightedVector) or v.space != space for v in vectors
        ):
            raise SpaceMismatchError(f"an occurrence is not {order} vectors over {space.name!r}")
        *heads, last = vectors
        terms = [((), 1.0)]  # (key, product) over the vectors but the last
        for v in heads:
            factors = [((i,), a) for i, a in sorted(v.entries.items())]
            terms = [(key + i, w * a) for key, w in terms for i, a in factors]
        factors = [((i,), a) for i, a in sorted(last.entries.items())]
        for prefix, w in terms:
            for i, a in factors:
                key = prefix + i
                total[key] = get(key, 0.0) + w * a
    return SemTensor._trusted(space, order, _kept(total))


def kronecker(*vectors: WeightedVector) -> SemTensor:
    """Tensor product of two or three vectors: entry (i, j, ...) = u_i * v_j * ..."""
    if len(vectors) not in (2, 3):
        raise ValueError(f"kronecker takes two or three vectors, got {len(vectors)}")
    return _kronecker_sum(len(vectors), [vectors])


# ---------------------------------------------------------------------------
# File formats.  All files are UTF-8 TSV with a first line
#     #space <TAB> <name> <TAB> <kind>
# naming the space; later lines starting with '#' are comments.  Weights are
# printed with repr() (shortest exact round-trip, always >= 6 significant
# digits) and rows are sorted so rebuilding a file is byte-identical.
# ---------------------------------------------------------------------------


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator:
    """Write to a temp file and rename into place; no partial file on failure."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"output directory {directory} does not exist")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def open_text(path: str | os.PathLike, error: type[GramsemError] = FileFormatError) -> Iterator:
    """Open an input file as UTF-8 text.  Bytes that do not decode, met
    anywhere in the ``with`` block, raise ``error`` naming ``path:line``."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            raise _undecodable(path, error) from None


def _read_records(path, least: int, most: int, expected: str, row: Callable) -> list:
    """``row(*fields)`` of each line that is not blank or a '#' comment, split at
    tabs and padded with '' to ``most`` fields.  Fewer than ``least`` or more
    than ``most`` fields (message ``expected``), or a ``ValueError`` from
    ``row``, raise ``FileFormatError`` naming ``path:line``."""
    records = []
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line or line[0] == "#":
                continue
            fields = line.split("\t")
            if not least <= len(fields) <= most:
                raise FileFormatError(f"{path}:{lineno}: {expected}")
            fields += [""] * (most - len(fields))
            try:
                records.append(row(*fields))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return records


def _write_lines(path: str | os.PathLike, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to ``path`` through ``atomic_write``."""
    with atomic_write(path) as handle:
        for line in lines:
            handle.write(line + "\n")


def _undecodable(path: str | os.PathLike, error: type[GramsemError]) -> GramsemError:
    # Only called once decoding has failed: the readers' loops count no
    # bytes, so the line is found by decoding the file again line by line,
    # split where text mode splits (\n, \r and \r\n).
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle.read().splitlines(), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return error(f"{path}:{lineno}: {exc}")
    return error(f"{path}: not valid UTF-8")


def _write_header(handle, space: BasisRegistry) -> None:
    handle.write(f"#space\t{space.name}\t{space.kind}\n")


def _check_header(handle, path: str | os.PathLike, space: BasisRegistry) -> None:
    """Read a file's first line, which must be the '#space' header naming ``space``."""
    header = handle.readline().rstrip("\n").split("\t")
    if header != ["#space", space.name, space.kind]:
        raise FileFormatError(
            f"{path}:1: header {' '.join(header)!r} is not '#space {space.name} {space.kind}'"
        )


def _weight(text: str, path: str | os.PathLike, lineno: int) -> float:
    try:
        w = float(text)
    except ValueError:
        raise FileFormatError(f"{path}:{lineno}: weight {text!r} is not a number") from None
    if not math.isfinite(w):
        raise FileFormatError(f"{path}:{lineno}: non-finite weight {text!r}")
    return w


def _check_collection_line(path, lineno: int, line: str, space: BasisRegistry, weights) -> None:
    """Check a collection line that ``load_vectors``' row loop could not take:
    return on a blank or '#' line, else raise the row's first error among its
    field count, label, a duplicate entry and its weight."""
    line = line.rstrip("\n")
    if not line or line[0] == "#":
        return
    row = line.split("\t")
    if len(row) != 3:
        raise FileFormatError(f"{path}:{lineno}: expected 'word<TAB>label<TAB>weight'")
    word, label, text = row
    if label not in space:
        raise UnknownLabelError(f"{path}:{lineno}: label {label!r} not in space {space.name!r}")
    if space.index(label) in weights.get(word, ()):
        raise FileFormatError(f"{path}:{lineno}: duplicate entry for {word!r}/{label!r}")
    _weight(text, path, lineno)


def _read_tensor_line(path, lineno: int, line: str, space, order: int | None, entries) -> int | None:
    """Read a tensor file line that ``load_tensor``'s row loop could not take;
    return the order known after it.  A '#order' line, then a row's width,
    must agree with ``order`` or set it; then come the row's first unknown
    label, a duplicate entry and its weight.  A valid row joins ``entries``."""
    line = line.rstrip("\n")
    if not line:
        return order
    *labels, text = line.split("\t")
    if line[0] == "#":
        if labels == ["#order"]:
            if order is None and text in ("1", "2", "3"):
                return int(text)
            if order is None or text != str(order):
                raise FileFormatError(f"{path}:{lineno}: order {text} is not {order or '1-3'}")
        return order
    if order is None and 1 <= len(labels) <= 3:
        order = len(labels)
    if len(labels) != order:
        raise FileFormatError(f"{path}:{lineno}: expected {order or '1-3'} labels and a weight")
    for label in labels:
        if label not in space:
            raise UnknownLabelError(f"{path}:{lineno}: label {label!r} not in space {space.name!r}")
    key = tuple(map(space.index, labels))
    if key in entries:
        raise FileFormatError(f"{path}:{lineno}: duplicate entry {labels!r}")
    entries[key] = _weight(text, path, lineno)
    return order


def save_tensor(path: str | os.PathLike, t: SemTensor) -> None:
    with atomic_write(path) as handle:
        _write_header(handle, t.space)
        handle.write(f"#order\t{t.order}\n")
        for labels, w in sorted(t.labelled().items()):
            handle.write("\t".join(labels) + f"\t{w!r}\n")


def load_tensor(path: str | os.PathLike, space: BasisRegistry) -> SemTensor:
    """Read a tensor file, checking each row once.  The order is the '#order'
    line's, else the first row's; a later '#order' line must agree."""
    index = space._index
    entries: dict[tuple[int, ...], float] = {}
    order = None
    with open_text(path) as handle:
        _check_header(handle, path, space)
        for lineno, line in enumerate(handle, 2):
            try:
                if order == 2:
                    a, b, text = line.split("\t")
                    key = (index[a], index[b])
                elif order == 1:
                    a, text = line.split("\t")
                    key = (index[a],)
                elif order == 3:
                    a, b, c, text = line.split("\t")
                    key = (index[a], index[b], index[c])
                else:  # until a '#order' line or the first row sets it
                    raise KeyError(order)
                w = float(text)
                # w - w is nonzero only for inf and nan; no label starts with '#' as comments do
                if key in entries or w - w:
                    raise KeyError(key)
            except (KeyError, ValueError):
                order = _read_tensor_line(path, lineno, line, space, order, entries)
                continue
            entries[key] = w
    if order is None:
        raise FileFormatError(f"{path}: cannot infer order of an empty tensor file")
    return SemTensor._trusted(space, order, _nonzero(entries))


def save_vectors(
    path: str | os.PathLike, vectors: Mapping[str, WeightedVector], space: BasisRegistry
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


def load_vectors(path: str | os.PathLike, space: BasisRegistry) -> dict[str, WeightedVector]:
    """Read a ``word<TAB>label<TAB>weight`` collection, checking each row once."""
    index = space._index
    weights: dict[str, dict[int, float]] = {}
    word = per_word = None
    with open_text(path) as handle:
        _check_header(handle, path, space)
        for lineno, line in enumerate(handle, 2):
            try:
                this, label, text = line.split("\t")
                # Rows come grouped by word, and a '#' line (a comment) never
                # has the word of the row before it.
                if this != word:
                    if this[:1] == "#":
                        continue
                    word, per_word = this, weights.setdefault(this, {})
                i = index[label]
                w = float(text)
                if i in per_word or w - w:  # w - w is nonzero for inf and nan only
                    raise KeyError(label)
            except (KeyError, ValueError):
                _check_collection_line(path, lineno, line, space, weights)
                continue
            per_word[i] = w
    return {word: WeightedVector._trusted(space, _nonzero(ws)) for word, ws in weights.items()}
