"""Property tests: the fixed-width file loaders equal the row-by-row ones.

``load_vectors`` and ``load_tensor`` read each row with one split and one
lookup per label, and leave every line they cannot take to a checker.  A
weight text met before reuses the float first read from it, while a memo
of the file's texts has credit (``len(space)`` to start, one less per text
stored, one more per repeat); otherwise a row costs one ``float``.  Over
random files mixing valid rows (zero weights included), words and first
labels met again after other rows, blank lines, comments of every width,
right, wrong and missing ``#order`` lines, rows of the wrong width,
unknown labels, duplicates, weights that are not finite numbers, bytes
that are not UTF-8 and files with several faults or no final newline, both
give the same result in the same order, or the same exception with the
same message.  So do files whose weights come from a few texts, some of
equal value, read in a space where the memo stays on and in one where it
turns off mid-file; counting the loaders' ``float`` calls shows which.
Given a set of words, ``load_vectors`` returns the full load's result
filtered to them, in the same order, or fails as the full load does: it
still checks every row.  A word let go whose rows start again after
another word's makes it read the file again, keeping every word.

``save_vectors`` and ``save_tensor`` order their rows by a precomputed rank
of each basis index and repr each distinct weight once; they write the same
bytes as the writers that sorted each value's ``labelled()`` dict and wrote
row by row.
"""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_load_tensor,
    oracle_load_vectors,
    oracle_save_tensor,
    oracle_save_vectors,
)
from gramsem import vectorspace
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


def filtered(loaded, words):
    return loaded if loaded[0] != "ok" else ("ok", {w: v for w, v in loaded[1].items() if w in words})


@SETTINGS
@given(files(("w", "v", "u", "#w", "")), st.sets(st.sampled_from(("w", "v", "u", "#w", "", "x"))))
def test_load_vectors_of_some_words_equals_the_full_load_filtered(data, words):
    # Every row is checked, whichever words are kept: a file the full load
    # refuses is refused with the same message.
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "nouns.tsv")
        with open(path, "wb") as handle:
            handle.write(data)
        new = outcome(load_vectors, path, SPACE, words)
        old = filtered(outcome(oracle_load_vectors, path, SPACE), words)
    assert new[0] == old[0]
    if old[0] == "ok":
        assert_same_vectors(new[1], old[1])
    else:
        assert new[1] == old[1]


def read_rows_calls(monkeypatch):
    """The ``words`` argument of each ``vectorspace._read_rows`` call, in order."""
    calls, read_rows = [], vectorspace._read_rows

    def counted(path, space, named, words=None):
        calls.append(words)
        return read_rows(path, space, named, words)

    monkeypatch.setattr(vectorspace, "_read_rows", counted)
    return calls


SPLIT = {
    # case: (rows after the header, words kept, full reads after the first)
    "grouped": (["v\ta\t1", "v\tb\t2", "w\ta\t3"], {"w"}, 0),
    "kept word split": (["w\ta\t1", "v\ta\t2", "w\tb\t3"], {"w"}, 0),
    "dropped word split": (["v\ta\t1", "w\ta\t2", "v\tb\t3"], {"w"}, 1),
    "dropped word split, then a duplicate": (["v\ta\t1", "w\ta\t2", "v\ta\t3"], {"w"}, 1),
    "dropped word split, then a bad row": (["v\ta\t1", "w\ta\t2", "v\tb\t3", "u\tz\t1"],
                                           {"w"}, 1),
    "only comments": (["#c\ta\t1", ""], {"w"}, 0),
}


@pytest.mark.parametrize("rows, words, again", SPLIT.values(), ids=SPLIT)
def test_a_dropped_word_met_again_reads_the_file_again(monkeypatch, rows, words, again):
    # The rows of a word that is not kept are let go when its rows end; if
    # they start again, one more read keeping every word finds what a
    # duplicate check over that word's rows would.
    calls = read_rows_calls(monkeypatch)
    with tempfile.TemporaryDirectory() as directory:
        path = written(directory, "\n".join([f"#space\t{SPACE.name}\tplain", *rows]).encode())
        new = outcome(load_vectors, path, SPACE, words)
        old = filtered(outcome(oracle_load_vectors, path, SPACE), words)
    assert calls == [words] + [None] * again
    assert new == old


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


# Weight texts that repeat: equal values spelt three ways, both zeros, and a
# "1e4" that the files may follow with an infinite "1e400".
MEMO_TEXTS = ("1.5", "1.50", " 1.5", "-2.5", "0.0", "-0.0", "1e4", "7")
# More credit than the texts (each twice, with and without a newline) can
# spend, so the memo stays on; SPACE's 3 is spent within a file.
BIG = BasisRegistry("s", tuple(f"l{i}" for i in range(40)))
LOADERS = {
    "collection": (load_vectors, oracle_load_vectors),
    "tensor": (load_tensor, oracle_load_tensor),
}


@st.composite
def repeating_files(draw, space, named):
    """The bytes of a file whose weights are drawn from ``MEMO_TEXTS``: valid
    rows over three labels, maybe one row again later (its text met by then),
    maybe a "1e400" after a "1e4", maybe no final newline.  A tensor file has
    its '#order' line, so no row is read before the memo is made."""
    order = 1 if named else draw(st.sampled_from([1, 2, 3]))
    labels = st.tuples(*[st.sampled_from(space.labels[:3])] * order)
    words = st.sampled_from(["w", "v"] if named else [""])
    keys = draw(st.lists(st.tuples(words, labels), min_size=1, max_size=20, unique=True))
    rows = [[word, *key] if named else list(key) for word, key in keys]
    lines = ["\t".join([*row, draw(st.sampled_from(MEMO_TEXTS))]) for row in rows]
    first = next((n for n, line in enumerate(lines) if line.endswith("\t1e4")), len(lines))
    if first < len(lines) - 1 and draw(st.booleans()):
        n = draw(st.integers(first + 1, len(lines) - 1))
        lines[n] = lines[n].rsplit("\t", 1)[0] + "\t1e400"
    if draw(st.booleans()):
        n = draw(st.integers(0, len(lines) - 1))
        lines.insert(draw(st.integers(n + 1, len(lines))), lines[n])
    header = [f"#space\t{space.name}\t{space.kind}", *[f"#order\t{order}"] * (not named)]
    return ("\n".join(header + lines) + draw(st.sampled_from(["\n", ""]))).encode("utf-8")


def counted(load, path, space):
    """``outcome`` of ``load``, and how many times it called ``float``."""
    calls = []

    def counting(text):
        calls.append(text)
        return float(text)

    with mock.patch.object(vectorspace, "float", counting, create=True):
        return outcome(load, path, space), len(calls)


def written(directory, data):
    path = os.path.join(directory, "f.tsv")
    with open(path, "wb") as handle:
        handle.write(data)
    return path


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("space", [BIG, SPACE], ids=["memo-stays-on", "memo-turns-off"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_repeated_weight_texts_load_as_one_float_per_row(kind, space, data):
    load, oracle = LOADERS[kind]
    with tempfile.TemporaryDirectory() as directory:
        path = written(directory, data.draw(repeating_files(space, kind == "collection")))
        new, old = outcome(load, path, space), outcome(oracle, path, space)
    assert new[0] == old[0]
    if old[0] != "ok":
        assert new[1] == old[1]
        return
    new, old = new[1], old[1]
    if kind == "tensor":
        new, old = {None: new}, {None: old}
    assert_same_vectors(new, old)
    # reprs tell the two zeros apart, which == does not
    assert [repr(t.entries) for t in new.values()] == [repr(t.entries) for t in old.values()]


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_the_memo_turns_off_only_in_the_small_space(kind):
    """Over the files above that load, the loader calls ``float`` once per
    distinct weight text in ``BIG``, and more often in some file in ``SPACE``."""
    load = LOADERS[kind][0]
    extra = {BIG: set(), SPACE: set()}

    for space in extra:

        @settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @given(repeating_files(space, kind == "collection"))
        def collect(data):
            with tempfile.TemporaryDirectory() as directory:
                (result, _), calls = counted(load, written(directory, data), space)
            if result == "ok":
                lines = data.decode("utf-8").splitlines(keepends=True)[1:]
                texts = {line.rsplit("\t", 1)[1] for line in lines if line[0] != "#"}
                extra[space].add(calls - len(texts))

        collect()
    assert extra[BIG] == {0}
    assert max(extra[SPACE]) > 0


def weight_file(directory, space, named, texts):
    """A file whose rows have weights ``texts`` in turn: a collection with a
    word per label, or an order-2 tensor; ``len(space) ** 2`` rows either way."""
    keys = [f"w{a}\t{b}" if named else f"{a}\t{b}" for a in space.labels for b in space.labels]
    rows = [f"{key}\t{text}\n" for key, text in zip(keys, texts, strict=True)]
    header = f"#space\t{space.name}\t{space.kind}\n" + ("" if named else "#order\t2\n")
    return written(directory, (header + "".join(rows)).encode())


# With 4 labels the memo's credit is 4: 3 new texts leave it on for the rest
# of the file, 4 or more spend it, and every later row calls float; a text
# met twice in a row earns back the credit it cost, so 8 pairs leave it on.
NEW = [f"{n}.5" for n in range(2, 10)]
CREDIT_CASES = {
    "3-new": (NEW[:3] + ["2.5"] * 13, 3),
    "4-new": (NEW[:4] + ["2.5"] * 12, 16),
    "5-new": (NEW[:5] + ["2.5"] * 11, 16),
    "8-pairs": ([text for text in NEW for _ in range(2)], 8),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("texts, calls", CREDIT_CASES.values(), ids=CREDIT_CASES)
def test_the_memo_turns_off_when_its_credit_is_spent(kind, texts, calls):
    space = BasisRegistry("s", tuple("abcd"))
    load, oracle = LOADERS[kind]
    with tempfile.TemporaryDirectory() as directory:
        path = weight_file(directory, space, kind == "collection", texts)
        # a second load in the same process starts with an empty memo
        for _ in range(2):
            (result, value), made = counted(load, path, space)
            assert result == "ok" and value == oracle(path, space)
            assert made == calls


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
