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
from collections.abc import Mapping
from contextlib import contextmanager
from itertools import chain, islice, product, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

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
        if not name or _breaks_line(name):  # the '#space' header line would split there
            raise ValueError(f"space name {name!r} is empty or holds a tab or line break")
        if kind not in (PLAIN, STRUCTURED):
            raise ValueError(f"unknown basis kind: {kind!r}")
        super().__init__(name, tuple(labels), kind)
        index: dict[str, int] = {}
        for i, label in enumerate(self.labels):
            if not label:
                raise ValueError("basis labels must be non-empty")
            if label[0] == "#" or _breaks_line(label):  # its rows would read as comments, or split
                raise ValueError(f"basis label {label!r} starts with '#' or holds a tab or line break")
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


class SemTensor(Value):
    """Sparse order-1/2/3 tensor over a space, stored as coordinate entries.

    Order 1 is a vector: a word's meaning, or the diagonal form used for
    intransitive verbs and adjectives, keyed by basis index (the constructor
    takes 1-tuples).  Order-2 tensors hold transitive-verb (and general
    adjective) weights, order-3 ditransitive weights, keyed by index tuples.
    ``entries`` is a dict, or a padded meaning's read-only view (``_padded``).
    """

    _fields = ("space", "order", "entries")

    def __init__(self, space: BasisRegistry, order: int, entries: Mapping[tuple[int, ...], float]):
        if order not in (1, 2, 3):
            raise ValueError(f"tensor order must be 1, 2 or 3, got {order}")
        clean = {}
        for key, w in entries.items():
            key = tuple(_as_index(i, space) for i in key)
            if len(key) != order:
                raise ValueError(f"index tuple {key} does not match order {order}")
            clean[key[0] if order == 1 else key] = float(w)
        super().__init__(space, order, _kept(clean))

    @classmethod
    def _trusted(cls, space: BasisRegistry, order: int, entries: dict | _Padded) -> "SemTensor":
        """Wrap a dict the library just built, or a padded meaning's view, keyed by
        indices valid in ``space`` (bare at order 1), with finite nonzero float
        weights; nothing is re-checked, so it never takes a mapping from a caller."""
        t = object.__new__(cls)
        Value.__init__(t, space, order, entries)
        return t

    def get(self, key) -> float:
        """The weight at ``key``: a basis index at order 1, an index tuple above."""
        return self.entries.get(operator.index(key) if self.order == 1 else tuple(key), 0.0)

    def to_dense(self) -> np.ndarray:
        try:
            import numpy as np  # the only numpy use: kept off every import path
        except ImportError:
            raise ImportError("to_dense needs numpy: pip install 'gramsem[test]'") from None

        out = np.zeros((len(self.space),) * self.order)
        for key, w in self.entries.items():
            out[key] = w
        return out

    def labelled(self) -> dict[str | tuple[str, ...], float]:
        label = self.space.labels.__getitem__
        if self.order == 1:
            return {label(i): w for i, w in sorted(self.entries.items())}
        return {tuple(map(label, key)): w for key, w in sorted(self.entries.items())}

    def is_zero(self) -> bool:
        return not self.entries


class WeightedVector:
    """Not a class of its own: builds a vector, an order-1 ``SemTensor``, from
    entries keyed by basis index."""

    def __new__(cls, space: BasisRegistry, entries: Mapping[int, float]) -> SemTensor:
        return SemTensor(space, 1, {(i,): w for i, w in entries.items()})

    @staticmethod
    def basis_vector(space: BasisRegistry, label: str) -> SemTensor:
        return SemTensor._trusted(space, 1, {space.index(label): 1.0})


def _check_same_space(a: SemTensor, b: SemTensor) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(
            f"operands live in different spaces: {a.space.name!r} vs {b.space.name!r}"
        )
    if a.order != b.order:
        raise SpaceMismatchError(f"operand orders differ: {a.order} vs {b.order}")


def _like(v: SemTensor, entries: dict) -> SemTensor:
    """A tensor of ``v``'s space and order holding freshly computed ``entries``."""
    return SemTensor._trusted(v.space, v.order, _kept(entries))


def add(v: SemTensor, w: SemTensor) -> SemTensor:
    """Component-wise sum of two vectors, or tensors of equal order, in one space."""
    _check_same_space(v, w)
    total = dict(v.entries)
    for k, x in w.entries.items():
        total[k] = total.get(k, 0.0) + x
    return _like(v, total)


def pointwise_mul(v: SemTensor, w: SemTensor) -> SemTensor:
    """Component-wise product; only indices present in both survive."""
    _check_same_space(v, w)
    small, big = (v.entries, w.entries) if len(v.entries) <= len(w.entries) else (w.entries, v.entries)
    return _like(v, {i: a * big[i] for i, a in small.items() if i in big})


def scale(v: SemTensor, factor: float) -> SemTensor:
    """Multiply every weight by ``factor``."""
    factor = float(factor)
    return _like(v, {k: w * factor for k, w in v.entries.items()})


def inner(v: SemTensor, w: SemTensor) -> float:
    """Sum of products over shared coordinates (the cup contraction).

    Probes the larger operand's keys with the smaller's (a padded view is not
    listed), then sums in sorted key order: deterministic, exactly symmetric.
    """
    _check_same_space(v, w)
    a, b = v.entries, w.entries
    keys = sorted(a.keys() & b.keys() if len(a) >= len(b) else b.keys() & a.keys())
    return sum(map(operator.mul, map(a.__getitem__, keys), map(b.__getitem__, keys)))


def norm(v: SemTensor) -> float:
    """Euclidean length sqrt(<v, v>), computed once per value and kept with it."""
    length = v.__dict__.get("_norm")
    if length is None:
        weights = list(map(v.entries.__getitem__, sorted(v.entries)))
        length = v.__dict__["_norm"] = math.sqrt(sum(map(operator.mul, weights, weights)))
    return length


class _Padded(Mapping):
    """A read-only view of ``base``, an order-``order`` tensor's entries, with m added
    axes: ``head + rest`` holds the weight at ``head`` for each ``rest`` in range(d)**m.
    Keys come in the order of a copy built from the sorted heads; none is stored."""

    def __init__(self, base: Mapping, order: int, m: int, d: int):
        self.base, self.order, self.m, self.axis = base, order, m, range(d)

    def __getitem__(self, key) -> float:
        n, m = self.order, self.m  # an added index matches as in a copy: == an int in range(d)
        if isinstance(key, tuple) and len(key) == n + m and all(i in self.axis for i in key[n:]):
            w = self.base.get(key[0] if n == 1 else key[:n])
            if w is not None:
                return w
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        axes = [self.axis] * self.m
        for head in sorted(self.base):
            yield from product(*([(head,)] if self.order == 1 else [(i,) for i in head]), *axes)

    def __len__(self) -> int:
        return len(self.base) * len(self.axis)**self.m

    def __eq__(self, other) -> bool:  # Mapping's copies both sides into dicts first
        return (isinstance(other, Mapping) and len(self) == len(other)
                and all(other.get(k) == w for k, w in self.items()))

    def __repr__(self) -> str:
        return repr(dict(self))


def _padded(t: SemTensor, order: int) -> SemTensor:
    """``t`` in the order-``order`` space, its m added axes spanning the d basis indices,
    as a view of ``t``'s entries.  Its norm sums each square of ``t`` d**m times in sorted
    key order: bitwise the padded copy's ``norm``, as sqrt(d**m) * |t| is not."""
    d, m = len(t.space), order - t.order
    padded = SemTensor._trusted(t.space, order, _Padded(t.entries, t.order, m, d))
    squares = chain.from_iterable(repeat(w * w, d**m) for _, w in sorted(t.entries.items()))
    padded.__dict__["_norm"] = math.sqrt(sum(squares))
    return padded


def cosine(v: SemTensor, w: SemTensor) -> float:
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
    total: dict = {}
    get = total.get
    for occurrence in occurrences:
        vectors = (occurrence,) if order == 1 else occurrence
        if len(vectors) != order or any(
            not isinstance(v, SemTensor) or v.order != 1 or v.space != space for v in vectors
        ):
            raise SpaceMismatchError(f"an occurrence is not {order} vectors over {space.name!r}")
        *heads, last = vectors
        if not heads:
            for i, a in sorted(last.entries.items()):
                total[i] = get(i, 0.0) + a
            continue
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


def kronecker(*vectors: SemTensor) -> SemTensor:
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


# os.umask reads the mask only by setting it, for the whole process: read it once.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator:
    """Write to a temp file and rename into place; no partial file on failure.
    The file gets the mode ``open`` gives a new file, 0o666 less the umask."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"output directory {directory} does not exist")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")  # mode 0600
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.chmod(tmp, 0o666 & ~_UMASK)
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


def _breaks_line(field: str) -> bool:
    """Whether ``field`` holds a tab or a line break: the readers split it there."""
    return "\t" in field or "\n" in field or "\r" in field


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


def _check_header(handle, path: str | os.PathLike, space: BasisRegistry, of: str = "") -> None:
    """Read a file's first line, which must be the '#space' header naming ``space``,
    the space of the file ``of`` if one is named."""
    header = handle.readline().rstrip("\n").split("\t")
    if header != ["#space", space.name, space.kind]:
        raise FileFormatError(f"{path}:1: header {' '.join(header)!r} is not "
                              f"'#space {space.name} {space.kind}'{of and ' of '}{of}")


def _weight(text: str, path: str | os.PathLike, lineno: int) -> float:
    try:
        w = float(text)
    except ValueError:
        raise FileFormatError(f"{path}:{lineno}: weight {text!r} is not a number") from None
    if not math.isfinite(w):
        raise FileFormatError(f"{path}:{lineno}: non-finite weight {text!r}")
    return w


def _read_rows(path, space: BasisRegistry, named: bool, words=None) -> tuple[int, dict]:
    """Read a weight file, checking each row once: ``word<TAB>label<TAB>weight``
    rows if ``named``, else a tensor's, of the '#order' line's or the first row's
    order.  Return the order and each word's entries, a tensor's under the key
    None; ``_reread`` takes the lines the loop cannot.  A weight text met
    again reuses the float first read from it while the memo has credit:
    ``len(space)`` to start, one less per text stored, one more per repeat.
    When none is left, the rest of the file costs one ``float`` per row.
    Given ``words``, a collection keeps only their entries; another word's are
    held until its rows end.  If they start again after another word's, the
    file is read again, keeping every word, so a duplicate is still found."""
    index = space._index
    rows: dict = {} if named else {None: {}}
    word, entries = None, rows.get(None, {})  # a collection's first row sets both
    order = 1 if named else None
    floats, room = {}, len(space)  # weight text -> its finite float; the memo's credit
    with open_text(path) as handle:
        _check_header(handle, path, space)
        for lineno, line in enumerate(handle, 2):
            try:
                if named:
                    this, a, text = line.split("\t")
                    # Rows come grouped by word, and a '#' line (a comment) never
                    # has the word of the row before it.
                    if this != word:
                        if this[:1] == "#":
                            continue
                        if words is not None and word not in words:
                            rows[word] = None  # its rows have ended: let its entries go
                        if (entries := rows.setdefault(this, {})) is None:
                            break  # a word let go starts again: read again below
                        word = this
                    key = index[a]
                elif order == 2:
                    a, b, text = line.split("\t")
                    key = (index[a], index[b])
                elif order == 1:
                    a, text = line.split("\t")
                    key = index[a]
                elif order == 3:
                    a, b, c, text = line.split("\t")
                    key = (index[a], index[b], index[c])
                else:  # until a '#order' line or the first row sets it
                    raise KeyError(order)
                if not room:
                    w = float(text)
                elif (w := floats.get(text)) is not None:
                    room += 1
                else:
                    w = float(text)
                    if w - w == 0:
                        floats[text] = w
                        room -= 1
                        if not room:  # off for the rest of the file: let the texts go
                            floats.clear()
                # w - w is nonzero only for inf and nan; no label starts with '#' as comments do
                if key in entries or w - w:
                    raise KeyError(key)
            except (KeyError, ValueError):
                order = _reread(path, lineno, line, space, named, order, rows)
                continue
            entries[key] = w
    if entries is None:  # outside the loop's try, as a FileFormatError is a ValueError
        rows = _read_rows(path, space, named)[1]
    if order is None:
        raise FileFormatError(f"{path}: cannot infer order of an empty tensor file")
    return order, rows if words is None else {w: e for w, e in rows.items() if w in words}


def _reread(path, lineno: int, line: str, space, named: bool, order: int | None, rows) -> int | None:
    """Read again a line that ``_read_rows``' loop could not take; return the
    order known after it.  Blank and '#' lines are skipped, but a tensor file's
    '#order' line must agree with ``order`` or set it.  Then come a row's width
    (a first row sets a tensor's order), its first unknown label, a duplicate
    entry and its weight.  A valid row joins ``rows``."""
    line = line.rstrip("\n")
    if not line:
        return order
    *labels, text = line.split("\t")
    if line[0] == "#":
        if labels == ["#order"] and not named:
            if order is None and text in ("1", "2", "3"):
                return int(text)
            if order is None or text != str(order):
                raise FileFormatError(f"{path}:{lineno}: order {text} is not {order or '1-3'}")
        return order
    if named and len(labels) != 2:
        raise FileFormatError(f"{path}:{lineno}: expected 'word<TAB>label<TAB>weight'")
    word = labels.pop(0) if named else None  # a collection's order is 1: one label is left
    if order is None and 1 <= len(labels) <= 3:
        order = len(labels)
    if len(labels) != order:
        raise FileFormatError(f"{path}:{lineno}: expected {order or '1-3'} labels and a weight")
    for label in labels:
        if label not in space:
            raise UnknownLabelError(f"{path}:{lineno}: label {label!r} not in space {space.name!r}")
    key = space.index(labels[0]) if order == 1 else tuple(map(space.index, labels))
    entries = rows.setdefault(word, {})
    if key in entries:
        what = f"for {word!r}/{labels[0]!r}" if named else repr(labels)
        raise FileFormatError(f"{path}:{lineno}: duplicate entry {what}")
    entries[key] = _weight(text, path, lineno)
    return order


def _write_rows(path, space: BasisRegistry, header: str, values) -> int:
    """Write the '#space' line, ``header`` and each of ``values`` (a row prefix, entries keyed
    by index at order 1, else by index tuples, and their order) as rows in label order, 8192
    to a ``write``; return the number of values that wrote rows.  Labels are unique, so
    tuples of ranks sort as tuples of labels do."""
    ordered = sorted(range(len(space)), key=space.labels.__getitem__)
    rank = [0] * len(space)  # a list indexes faster than a dict
    for place, i in enumerate(ordered):
        rank[i] = place
    names = [space.labels[i] for i in ordered]  # by rank
    reprs: dict[float, str] = {}  # weights are nonzero: equal floats have equal reprs
    written = 0
    with atomic_write(path) as handle:
        handle.write(f"#space\t{space.name}\t{space.kind}\n{header}")
        for prefix, entries, order in values:
            written += bool(entries)
            new = set(entries.values()).difference(reprs)
            reprs.update(zip(new, map(repr, new)))
            if order == 1:
                keys = sorted(entries, key=rank.__getitem__)
                rows = (f"{prefix}{names[rank[a]]}\t{reprs[entries[a]]}\n" for a in keys)
            elif order == 2:
                keys = sorted([(rank[a], rank[b], w) for (a, b), w in entries.items()])
                rows = (f"{prefix}{names[a]}\t{names[b]}\t{reprs[w]}\n" for a, b, w in keys)
            else:
                keys = sorted([(rank[a], rank[b], rank[c], w) for (a, b, c), w in entries.items()])
                rows = (f"{prefix}{names[a]}\t{names[b]}\t{names[c]}\t{reprs[w]}\n"
                        for a, b, c, w in keys)
            while chunk := "".join(islice(rows, 8192)):
                handle.write(chunk)
    return written


def save_tensor(path: str | os.PathLike, t: SemTensor) -> None:
    _write_rows(path, t.space, f"#order\t{t.order}\n", [("", t.entries, t.order)])


def load_tensor(path: str | os.PathLike, space: BasisRegistry) -> SemTensor:
    """Read a tensor file, checking each row once.  The order is the '#order'
    line's, else the first row's; a later '#order' line must agree."""
    order, rows = _read_rows(path, space, False)
    return SemTensor._trusted(space, order, _nonzero(rows[None]))


def save_vectors(
    path: str | os.PathLike, vectors: Mapping[str, SemTensor], space: BasisRegistry
) -> int:
    """Write a word -> vector collection as rows ``word<TAB>label<TAB>weight``
    in label order, and return the number of words that wrote rows.  A word
    starting with '#' (its rows would read as comments) or holding a tab or
    line break is refused before any file is written.  Each value is read
    once, as its rows are written; one that is not a vector over ``space``
    raises, and the file is left as it was."""
    words = sorted(vectors)
    for word in words:
        if word[:1] == "#" or _breaks_line(word):
            raise ValueError(f"word {word!r} starts with '#' or holds a tab or line break")

    def entries(word: str) -> dict:
        v = vectors[word]
        if v.space != space or v.order != 1:
            raise SpaceMismatchError(f"{word!r} is not an order-1 tensor over {space.name!r}")
        return v.entries

    values = ((f"{word}\t", entries(word), 1) for word in words)
    return _write_rows(path, space, "", values)


def load_vectors(
    path: str | os.PathLike, space: BasisRegistry, words: Iterable[str] | None = None
) -> dict[str, SemTensor]:
    """Read a ``word<TAB>label<TAB>weight`` collection, checking each row once;
    given ``words``, keep only their vectors."""
    _, rows = _read_rows(path, space, True, None if words is None else set(words))
    return {word: SemTensor._trusted(space, 1, _nonzero(ws)) for word, ws in rows.items()}
