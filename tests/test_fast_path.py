"""Files as the writers write them are read by the row loop alone.

``load_vectors`` and ``load_tensor`` share one row loop, which hands every
line it cannot take to ``vectorspace._reread``.  The loaders' results are
the same either way (``tests/test_loaders.py``), so only a count of the
calls shows a written row that fell to the slow path: a file written by
``save_vectors`` never reaches ``_reread``, and one written by
``save_tensor`` reaches it once, for its ``#order`` line.
"""

import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

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

LABELS = ("b", "a", "B", "10", "9", "é", "Z1", "0", "a b", "x#")
WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # subnormals, and weights met again across words and labels
    st.sampled_from([5e-324, -5e-324, 1e-310, -2.5e-320, 1.5, -1.5, 0.1, -3.0]),
)
# Any word save_vectors takes: no leading '#', no tab or line break.
WORDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), max_size=5
).filter(lambda word: word[:1] != "#")
SETTINGS = settings(max_examples=300, deadline=None)


def load_counting_rereads(load, path, space):
    """``load(path, space)`` and the line numbers it passed to ``_reread``."""
    linenos = []
    reread = vectorspace._reread

    def counted(*args):
        linenos.append(args[1])
        return reread(*args)

    with mock.patch.object(vectorspace, "_reread", counted):
        return load(path, space), linenos


@SETTINGS
@given(
    labels=st.lists(st.sampled_from(LABELS), min_size=1, unique=True),
    rows=st.dictionaries(
        WORDS, st.dictionaries(st.integers(0, len(LABELS) - 1), WEIGHTS, max_size=8), max_size=5
    ),
)
def test_a_written_collection_never_reaches_the_reread(labels, rows):
    space = BasisRegistry("s", labels)
    vectors = {
        word: WeightedVector(space, {i % len(labels): w for i, w in weights.items()})
        for word, weights in rows.items()
    }
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "nouns.tsv")
        save_vectors(path, vectors, space)
        loaded, linenos = load_counting_rereads(load_vectors, path, space)
    assert linenos == []
    assert loaded == {word: v for word, v in vectors.items() if not v.is_zero()}


@SETTINGS
@given(labels=st.permutations(LABELS), order=st.sampled_from([1, 2, 3]), data=st.data())
def test_a_written_tensor_reaches_the_reread_once_for_its_order_line(labels, order, data):
    space = BasisRegistry("s", labels)
    key = st.tuples(*[st.integers(0, len(labels) - 1)] * order)
    tensor = SemTensor(space, order, data.draw(st.dictionaries(key, WEIGHTS, max_size=12)))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "verb.tsv")
        save_tensor(path, tensor)
        loaded, linenos = load_counting_rereads(load_tensor, path, space)
    assert linenos == [2]  # the '#order' line, after the '#space' header
    assert loaded == tensor
