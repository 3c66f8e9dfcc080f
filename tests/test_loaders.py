"""Property tests: the fixed-width file loaders equal the row-by-row ones.

``load_vectors`` and ``load_tensor`` read each row with one split, one
lookup per label and one ``float``, and leave every line they cannot take
to a checker.  Over random files mixing valid rows (zero weights
included), words and first labels met again after other rows, blank
lines, comments of every width, right, wrong and missing ``#order``
lines, rows of the wrong width, unknown labels, duplicates, weights that
are not finite numbers, bytes that are not UTF-8 and files with several
faults or no final newline, both give the same result in the same order,
or the same exception with the same message.

``save_vectors`` and ``save_tensor`` order their rows by a precomputed rank
of each basis index and repr each distinct weight once; they write the same
bytes as the writers that sorted each value's ``labelled()`` dict and wrote
row by row.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_load_tensor,
    oracle_load_vectors,
    oracle_save_tensor,
    oracle_save_vectors,
)
from gramsem.vectorspace import (
    BasisRegistry,
    SemTensor,
    WeightedVector,
    load_tensor,
    load_vectors,
    save_tensor,
    save_vectors,
)

SPACE = BasisRegistry("s", ("a", "b", "c"))
GOOD_WEIGHTS = st.one_of(
    st.sampled_from(["1.5", "-2.0", "0.0", "-0.0", "0", "1e-300", " 3", "1_0", "2.5e3"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
BAD_WEIGHTS = st.sampled_from(["x", "", "nan", "inf", "-inf", "1e400", "NaN", "1.0.0"])
SETTINGS = settings(max_examples=500, deadline=None)


@st.composite
def files(draw, words):
    """The bytes of a file: a header (mostly right), valid rows of one order
    (1 for a collection) with blank, comment and '#order' lines between
    them, up to two faulty lines, and maybe no final newline or a byte that
    is not UTF-8."""
    order = 1 if words else draw(st.sampled_from([1, 2, 3]))
    header = draw(st.sampled_from([f"#space\t{SPACE.name}\tplain"] * 9 + ["#space\tother\tplain"]))
    labels = st.tuples(*[st.sampled_from(SPACE.labels)] * order)
    keys = draw(st.lists(st.tuples(st.sampled_from(words or [""]), labels), max_size=12, unique=True))
    rows = [[word, *key] if words else list(key) for word, key in keys]
    lines = ["\t".join([*row, draw(GOOD_WEIGHTS)]) for row in rows]

    def insert(line):
        lines.insert(draw(st.integers(0, len(lines))), line)

    for _ in range(draw(st.integers(0, 4))):
        insert(draw(st.sampled_from(["", "#", "#c\tx", "#c\ta\t1.0", "#\ta\tb\t1", f"#order\t{order}"])))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        row = draw(st.sampled_from(rows)) if rows else [*words[:1], *SPACE.labels[:order]]
        fault = draw(st.sampled_from(["width", "label", "duplicate", "weight", "order"]))
        if fault == "width":
            row = draw(st.sampled_from([row[:-1], [*row, row[-1]]]))
        elif fault == "label":
            row = list(row)
            row[draw(st.integers(bool(words), len(row) - 1))] = draw(st.sampled_from(["zz", ""]))
        if fault == "order":
            insert("#order\t" + draw(st.sampled_from(["1", "2", "3", "4", "x", "None", ""])))
        else:
            insert("\t".join([*row, draw(BAD_WEIGHTS if fault == "weight" else GOOD_WEIGHTS)]))
    text = "\n".join([header, *lines]) + draw(st.sampled_from(["\n", ""]))
    data = text.encode("utf-8")
    if lines and draw(st.sampled_from([False] * 19 + [True])):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def outcome(load, path, *args):
    try:
        return "ok", load(path, *args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def assert_same_vectors(new, old):
    assert new == old
    assert list(new) == list(old)
    for word in old:
        assert list(new[word].entries.items()) == list(old[word].entries.items())
        assert all(type(w) is float for w in new[word].entries.values())


@SETTINGS
@given(files(("w", "v", "u", "#w", "")))
def test_load_vectors_equals_the_row_by_row_loader(data):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "nouns.tsv")
        with open(path, "wb") as handle:
            handle.write(data)
        new = outcome(load_vectors, path, SPACE)
        old = outcome(oracle_load_vectors, path, SPACE)
    assert new[0] == old[0]
    if old[0] == "ok":
        assert_same_vectors(new[1], old[1])
    else:
        assert new[1] == old[1]


@SETTINGS
@given(files(()))
def test_load_tensor_equals_the_row_by_row_loader(data):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.tsv")
        with open(path, "wb") as handle:
            handle.write(data)
        new = outcome(load_tensor, path, SPACE)
        old = outcome(oracle_load_tensor, path, SPACE)
    assert new[0] == old[0]
    if old[0] == "ok":
        assert new[1] == old[1] and new[1].order == old[1].order
        assert list(new[1].entries.items()) == list(old[1].entries.items())
        assert all(type(w) is float for w in new[1].entries.values())
    else:
        assert new[1] == old[1]


# a fragment of each error message a loader can raise
MARKERS = {
    "tensor": ("header", ": order", "labels and a weight", "not in space", "duplicate",
               "not a number", "non-finite", "codec", "empty"),
    "collection": ("header", "expected 'word", "not in space", "duplicate", "not a number",
                   "non-finite", "codec"),
}


@pytest.mark.parametrize("kind", sorted(MARKERS))
def test_the_files_reach_every_outcome(kind):
    """The random files load, with and without entries, and fail in every
    way the loader can; the equality tests above would be weak otherwise."""
    seen = set()
    words, load = ((), load_tensor) if kind == "tensor" else (("w", "v"), load_vectors)

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(files(words))
    def collect(data):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "f.tsv")
            with open(path, "wb") as handle:
                handle.write(data)
            result, value = outcome(load, path, SPACE)
        if result == "ok":
            seen.add("ok" if (value.entries if kind == "tensor" else value) else "ok, empty")
        else:
            seen.update(marker for marker in MARKERS[kind] if marker in value)

    collect()
    assert seen == {"ok", "ok, empty", *MARKERS[kind]}


# Labels whose sorted order is not the order they are drawn in, so the
# writer's rank of each index is tested; a benchmark basis (c0000, c0001, ...)
# is sorted already.
WRITER_LABELS = ("b", "a", "B", "10", "9", "é", "Z1", "0")
WRITER_WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # subnormals, and weights met again across words and labels
    st.sampled_from([5e-324, -5e-324, 1e-310, -2.5e-320, 1.5, -1.5, 0.1, -3.0]),
)


@SETTINGS
@given(
    labels=st.lists(st.sampled_from(WRITER_LABELS), min_size=1, unique=True),
    rows=st.dictionaries(
        st.sampled_from(["w", "v", "u", "é", "a b", "#w", "w#"]),
        st.dictionaries(st.integers(0, len(WRITER_LABELS) - 1), WRITER_WEIGHTS, max_size=8),
        max_size=5,
    ),
)
def test_save_vectors_equals_the_row_by_row_writer(labels, rows):
    space = BasisRegistry("s", labels)
    vectors = {
        word: WeightedVector(space, {i % len(labels): w for i, w in weights.items()})
        for word, weights in rows.items()
    }
    written = []
    with tempfile.TemporaryDirectory() as directory:
        for k, save in enumerate((save_vectors, oracle_save_vectors)):
            path = os.path.join(directory, f"{k}.tsv")
            kind = outcome(save, path, vectors, space)[0]  # messages may differ
            written.append((kind, open(path, "rb").read() if os.path.exists(path) else None))
    assert written[0] == written[1]


@SETTINGS
@given(
    labels=st.permutations(WRITER_LABELS),
    order=st.sampled_from([1, 2, 3]),
    data=st.data(),
)
def test_save_tensor_equals_the_row_by_row_writer(labels, order, data):
    # The basis holds every label and the tensor a few entries, so the writer
    # ranks a subset of the basis, in an order that is not index order.
    space = BasisRegistry("s", labels)
    key = st.tuples(*[st.integers(0, len(labels) - 1)] * order)
    entries = data.draw(st.dictionaries(key, WRITER_WEIGHTS, max_size=12))
    tensor = SemTensor(space, order, entries)
    written = []
    with tempfile.TemporaryDirectory() as directory:
        for k, save in enumerate((save_tensor, oracle_save_tensor)):
            path = os.path.join(directory, f"{k}.tsv")
            save(path, tensor)
            with open(path, "rb") as handle:
                written.append(handle.read())
    assert written[0] == written[1]
