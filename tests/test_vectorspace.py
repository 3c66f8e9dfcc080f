"""Unit tests for the sparse vector/tensor algebra against dense oracles."""

import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gramsem
from oracles import oracle_cosine, oracle_inner, oracle_norm
from gramsem.errors import FileFormatError, SpaceMismatchError
from gramsem.vectorspace import (
    PLAIN,
    STRUCTURED,
    BasisRegistry,
    SemTensor,
    WeightedVector,
    add,
    atomic_write,
    cosine,
    inner,
    kronecker,
    load_tensor,
    load_vectors,
    norm,
    pointwise_mul,
    save_tensor,
    save_vectors,
    scale,
)

SPACE2 = BasisRegistry("two", ("a", "b"))
SPACE3 = BasisRegistry("three", ("a", "b", "c"))


def vec(space, *weights):
    return WeightedVector(space, {i: w for i, w in enumerate(weights)})


# --- registry ---------------------------------------------------------------


def test_registry_bijection():
    assert SPACE3.index("b") == 1
    assert SPACE3.label(2) == "c"
    assert "a" in SPACE3 and "z" not in SPACE3
    with pytest.raises(ValueError):
        BasisRegistry("dup", ("a", "a"))
    with pytest.raises(ValueError):
        BasisRegistry("empty-label", ("a", ""))
    with pytest.raises(KeyError):
        SPACE3.index("nope")


def test_registry_refuses_a_label_starting_with_hash():
    # a file row that starts with '#' is a comment, so such a label could not be read back
    for label in ("#a", "#order", "#"):
        with pytest.raises(ValueError, match="starts with '#'"):
            BasisRegistry("h", ("a", label))
    assert BasisRegistry("h", ("a#", "b")).labels == ("a#", "b")


def test_registry_refuses_a_tab_or_line_break_in_a_label_or_name():
    # the file readers split a row at tabs and line breaks, the '#space' header too
    for bad in ("a\tb", "a\r", "a\nb", "\t"):
        with pytest.raises(ValueError, match="holds a tab or line break"):
            BasisRegistry("h", ("c", bad))
        with pytest.raises(ValueError, match="holds a tab or line break"):
            BasisRegistry(f"N{bad}", ("c",))


def test_structured_labels_checked():
    BasisRegistry("ok", ("arg-fluffy", "subj-chase", "obj-buy"), STRUCTURED)
    for bad in ("fluffy", "-fluffy", "arg-"):
        with pytest.raises(ValueError):
            BasisRegistry("bad", (bad,), STRUCTURED)
    with pytest.raises(ValueError):
        BasisRegistry("bad-kind", ("a",), "fancy")


# --- construction invariants -------------------------------------------------


def test_vector_drops_zeros_and_checks():
    v = WeightedVector(SPACE3, {0: 1.0, 1: 0.0, 2: -2.5})
    assert v.entries == {0: 1.0, 2: -2.5}
    assert v.get(1) == 0.0
    assert v.get(SPACE3.index("c")) == -2.5
    with pytest.raises(ValueError):
        WeightedVector(SPACE3, {5: 1.0})
    with pytest.raises(ValueError):
        WeightedVector(SPACE3, {0: float("nan")})
    assert WeightedVector(SPACE3, {}).is_zero()
    with pytest.raises(ValueError, match="not an integer"):
        WeightedVector(SPACE3, {"a": 1.0})
    with pytest.raises(ValueError, match="not an integer"):
        WeightedVector(SPACE3, {1.5: 1.0})
    n = WeightedVector(SPACE3, {np.int64(0): 1.0})
    assert n.entries == {0: 1.0}
    assert [type(i) for i in n.entries] == [int]


def test_tensor_construction_checks():
    t = SemTensor(SPACE2, 2, {(0, 1): 2.0, (1, 1): 0.0})
    assert t.entries == {(0, 1): 2.0}
    with pytest.raises(ValueError):
        SemTensor(SPACE2, 2, {(0,): 1.0})
    with pytest.raises(ValueError):
        SemTensor(SPACE2, 4, {})
    with pytest.raises(ValueError):
        SemTensor(SPACE2, 2, {(0, 9): 1.0})
    with pytest.raises(ValueError):
        SemTensor(SPACE2, 1, {(0,): float("inf")})
    with pytest.raises(ValueError, match="not an integer"):
        SemTensor(SPACE2, 2, {(0, 1.5): 1.0})
    n = SemTensor(SPACE2, 2, {(np.int64(0), np.int64(1)): 2.0})
    assert n.entries == {(0, 1): 2.0}
    assert [type(i) for key in n.entries for i in key] == [int, int]


def test_from_labels_and_round_trips():
    v = WeightedVector(SPACE3, {SPACE3.index("a"): 1.0, SPACE3.index("c"): 3.0})
    assert v.labelled() == {"a": 1.0, "c": 3.0}
    t = SemTensor(SPACE2, 2, {(SPACE2.index("a"), SPACE2.index("b")): 4.0})
    assert t.labelled() == {("a", "b"): 4.0}
    one = SemTensor(SPACE2, 1, {(SPACE2.index("a"),): 2.0})
    assert one.labelled() == {"a": 2.0}
    e = WeightedVector.basis_vector(SPACE3, "b")
    assert e.to_dense().tolist() == [0.0, 1.0, 0.0]


# --- arithmetic examples ------------------------------------------------------


def test_add_examples():
    assert add(vec(SPACE2, 1, 2), vec(SPACE2, 3, 4)).entries == {0: 4.0, 1: 6.0}
    v = vec(SPACE2, 1, 2)
    assert add(v, WeightedVector(SPACE2, {})) == v
    assert add(vec(SPACE2, 1, 0), vec(SPACE2, 0, 1)).entries == {0: 1.0, 1: 1.0}


def test_pointwise_mul_examples():
    assert pointwise_mul(vec(SPACE2, 1, 2), vec(SPACE2, 3, 4)).entries == {0: 3.0, 1: 8.0}
    assert pointwise_mul(vec(SPACE2, 1, 0), vec(SPACE2, 0, 1)).is_zero()


def test_inner_examples():
    assert inner(vec(SPACE2, 1, 2), vec(SPACE2, 3, 4)) == 11.0
    v = vec(SPACE3, 5, -1, 2)
    assert inner(v, WeightedVector.basis_vector(SPACE3, "a")) == 5.0
    assert inner(v, WeightedVector(SPACE3, {})) == 0.0


def test_norm_examples():
    assert norm(vec(SPACE2, 3, 4)) == 5.0
    assert norm(WeightedVector(SPACE2, {})) == 0.0
    assert norm(WeightedVector.basis_vector(SPACE3, "b")) == 1.0


def test_cosine_examples():
    v = vec(SPACE2, 1, 2)
    assert cosine(v, v) == 1.0
    e1 = WeightedVector.basis_vector(SPACE2, "a")
    e2 = WeightedVector.basis_vector(SPACE2, "b")
    assert cosine(e1, e2) == 0.0
    assert cosine(v, scale(v, 3.0)) == pytest.approx(1.0, abs=1e-15)
    assert cosine(v, WeightedVector(SPACE2, {})) == 0.0


def test_cosine_rescales_norms_whose_squares_overflow_or_underflow():
    assert cosine(vec(SPACE2, 1e200), vec(SPACE2, -1e200)) == -1.0
    tiny = vec(SPACE2, 1e-200, 3e-200)
    assert cosine(tiny, tiny) == 1.0
    assert cosine(tiny, vec(SPACE2, 3e-200, 1e-200)) == pytest.approx(0.6, abs=1e-15)
    u = vec(SPACE2, 1.0, 2.0)
    assert cosine(scale(u, 2.0**600), scale(u, -1.0)) == cosine(u, scale(u, -1.0))
    assert cosine(scale(u, 2.0**600), scale(u, -1.0)) == -0.9999999999999998
    assert cosine(vec(SPACE2, 5e-324), WeightedVector(SPACE2, {})) == 0.0


# Weights in +-[1e-3, 1e3]: scaled by 2**e for |e| <= 900 they stay normal.
MODERATE = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
MODERATE_VECTORS = st.dictionaries(st.integers(0, 2), MODERATE, max_size=3).map(
    lambda entries: WeightedVector(SPACE3, entries)
)


@settings(max_examples=300, deadline=None)
@given(MODERATE_VECTORS, MODERATE_VECTORS, st.integers(-900, 900))
def test_cosine_is_unchanged_by_a_power_of_two(v, w, e):
    scaled = scale(v, 2.0**e)
    # identical operands score 1.0 by convention, which the computed value may
    # miss by an ulp: only pairs that go through the computation are compared
    assume(v.entries != w.entries and scaled.entries != w.entries)
    assert cosine(scaled, w) == cosine(v, w)


# Weights whose squares overflow or underflow, subnormals among them, so that
# cosine rescales its operands, and ordinary ones.
EXTREME = st.one_of(
    st.sampled_from([1e200, -3e200, 1e-200, 3e-200, -5e-324, 2.0**-1074 * 3]),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tensor_pairs(draw):
    order = draw(st.sampled_from([1, 2, 3]))
    key = st.tuples(*[st.integers(0, 2)] * order)
    v, w = (SemTensor(SPACE3, order, draw(st.dictionaries(key, EXTREME, max_size=8)))
            for _ in range(2))
    return v, w


@settings(max_examples=500, deadline=None)
@given(tensor_pairs())
def test_inner_norm_and_cosine_equal_the_tuple_oracles_bitwise(pair):
    # the type and repr tell every float apart, -0.0 from 0.0 too, and the
    # int 0 that a sum over no shared keys gives from either
    v, w = pair
    for new, old in [(inner(v, w), oracle_inner(v, w)), (norm(v), oracle_norm(v)),
                     (cosine(v, w), oracle_cosine(v, w))]:
        assert (type(new), repr(new)) == (type(old), repr(old))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_the_oracle_pairs_reach_the_rescaled_cosine(order):
    # an order-``order`` pair whose norms leave [2**-450, 2**450], and its
    # score, which holds only if the operands were rescaled first
    keys = [(0,) * order, (1,) * order]
    v = SemTensor(SPACE3, order, dict(zip(keys, [1e200, 3e200])))
    w = SemTensor(SPACE3, order, dict(zip(keys, [3e-200, 1e-200])))
    assert not 2.0**-450 <= norm(v) <= 2.0**450 and not 2.0**-450 <= norm(w) <= 2.0**450
    assert repr(cosine(v, w)) == repr(oracle_cosine(v, w))
    assert cosine(v, w) == pytest.approx(0.6, abs=1e-15)


def test_kronecker_examples():
    t = kronecker(vec(SPACE2, 1, 2), vec(SPACE2, 3, 4))
    # oracle: direct double loop over the definition
    expected = {}
    for i, a in enumerate((1.0, 2.0)):
        for j, b in enumerate((3.0, 4.0)):
            expected[(i, j)] = a * b
    assert t.entries == expected
    assert kronecker(vec(SPACE2, 1, 2), WeightedVector(SPACE2, {})).is_zero()
    e = kronecker(
        WeightedVector.basis_vector(SPACE2, "a"), WeightedVector.basis_vector(SPACE2, "b")
    )
    assert e.entries == {(0, 1): 1.0}


def test_kronecker3_example():
    u, v, w = vec(SPACE2, 1, 2), vec(SPACE2, 3, 0), vec(SPACE2, 0, 5)
    t = kronecker(u, v, w)
    expected = {}
    for i, a in enumerate((1.0, 2.0)):
        for j, b in enumerate((3.0, 0.0)):
            for k, c in enumerate((0.0, 5.0)):
                if a * b * c:
                    expected[(i, j, k)] = a * b * c
    assert t.entries == expected


@pytest.mark.parametrize("count", [0, 1, 4])
def test_kronecker_takes_two_or_three_vectors(count):
    with pytest.raises(ValueError, match=f"two or three vectors, got {count}"):
        kronecker(*[vec(SPACE2, 1, 2)] * count)


def test_tensor_add_and_mul():
    a = SemTensor(SPACE2, 2, {(0, 0): 1.0, (0, 1): 2.0})
    b = SemTensor(SPACE2, 2, {(0, 1): 3.0, (1, 1): 4.0})
    assert add(a, b).entries == {(0, 0): 1.0, (0, 1): 5.0, (1, 1): 4.0}
    assert add(a, SemTensor(SPACE2, 2, {})) == a
    assert pointwise_mul(a, b).entries == {(0, 1): 6.0}


def test_space_and_order_mismatches():
    with pytest.raises(SpaceMismatchError):
        add(vec(SPACE2, 1, 2), vec(SPACE3, 1, 2, 3))
    with pytest.raises(SpaceMismatchError):
        inner(vec(SPACE2, 1, 2), kronecker(vec(SPACE2, 1, 2), vec(SPACE2, 1, 2)))
    with pytest.raises(SpaceMismatchError):
        cosine(
            SemTensor(SPACE2, 2, {(0, 0): 1.0}),
            SemTensor(SPACE2, 1, {(0,): 1.0}),
        )


# --- dense-oracle agreement ---------------------------------------------------


def random_sparse(rng, space, allow_negative=True):
    dim = len(space)
    entries = {}
    for i in range(dim):
        if rng.random() < 0.6:
            w = rng.uniform(-5, 5) if allow_negative else rng.uniform(0, 5)
            entries[i] = w
    return WeightedVector(space, entries)


def test_operations_match_dense_oracle():
    rng = np.random.default_rng(20240517)
    for trial in range(200):
        dim = int(rng.integers(1, 9))
        space = BasisRegistry("rnd", tuple(f"b{i}" for i in range(dim)))
        u, v, w = (random_sparse(rng, space) for _ in range(3))
        du, dv, dw = u.to_dense(), v.to_dense(), w.to_dense()
        assert np.allclose(add(u, v).to_dense(), du + dv)
        assert np.allclose(pointwise_mul(u, v).to_dense(), du * dv)
        assert inner(u, v) == pytest.approx(float(du @ dv), rel=1e-12, abs=1e-12)
        assert norm(u) == pytest.approx(float(np.linalg.norm(du)), rel=1e-12, abs=1e-12)
        assert np.allclose(kronecker(u, v).to_dense(), np.outer(du, dv))
        assert np.allclose(
            kronecker(u, v, w).to_dense(), np.einsum("i,j,k->ijk", du, dv, dw)
        )
        t1, t2 = kronecker(u, v), kronecker(v, w)
        assert np.allclose(add(t1, t2).to_dense(), t1.to_dense() + t2.to_dense())
        nu, nv = np.linalg.norm(du), np.linalg.norm(dv)
        expected = 0.0 if nu == 0 or nv == 0 else float(du @ dv) / (nu * nv)
        assert cosine(u, v) == pytest.approx(expected, abs=1e-12)


def test_kronecker_bilinear_and_norm_multiplicative():
    rng = np.random.default_rng(7)
    space = BasisRegistry("rnd", tuple(f"b{i}" for i in range(6)))
    for _ in range(100):
        u, v, w = (random_sparse(rng, space) for _ in range(3))
        alpha = float(rng.uniform(-3, 3))
        left = kronecker(add(scale(u, alpha), v), w)
        right = add(scale(kronecker(u, w), alpha), kronecker(v, w))
        for key in left.entries.keys() | right.entries.keys():
            assert left.get(key) == pytest.approx(right.get(key), rel=1e-12, abs=1e-12)
        assert norm(kronecker(u, v)) == pytest.approx(
            norm(u) * norm(v), rel=1e-12, abs=1e-12
        )


def test_cosine_bounds_and_scale_invariance():
    rng = np.random.default_rng(99)
    space = BasisRegistry("rnd", tuple(f"b{i}" for i in range(5)))
    for _ in range(100):
        v = random_sparse(rng, space)
        w = random_sparse(rng, space)
        c = cosine(v, w)
        assert -1.0 <= c <= 1.0
        p = cosine(random_sparse(rng, space, False), random_sparse(rng, space, False))
        assert 0.0 <= p <= 1.0
        a, b = float(rng.uniform(0.1, 4)), float(rng.uniform(0.1, 4))
        assert cosine(scale(v, a), scale(w, b)) == pytest.approx(c, abs=1e-12)


# --- files --------------------------------------------------------------------


def test_vector_file_round_trip(tmp_path):
    # a vector goes to file as an order-1 tensor
    v = WeightedVector(SPACE3, {SPACE3.index("a"): 1.25, SPACE3.index("c"): -79.24})
    path = tmp_path / "v.tsv"
    save_tensor(path, v)
    assert load_tensor(path, SPACE3) == v
    text = path.read_text(encoding="utf-8")
    assert text.startswith("#space\tthree\tplain\n#order\t1\n")


def test_tensor_file_round_trip(tmp_path):
    a, b = SPACE2.index("a"), SPACE2.index("b")
    t = SemTensor(SPACE2, 2, {(a, b): 2.5, (b, b): 1e-7})
    path = tmp_path / "t.tsv"
    save_tensor(path, t)
    assert load_tensor(path, SPACE2) == t
    three = kronecker(vec(SPACE2, 1, 2), vec(SPACE2, 3, 4), vec(SPACE2, 5, 6))
    save_tensor(path, three)
    assert load_tensor(path, SPACE2) == three


def test_vectors_collection_round_trip(tmp_path):
    vectors = {
        "dog": WeightedVector(SPACE3, {SPACE3.index("a"): 3.0}),
        "cat": WeightedVector(SPACE3, {SPACE3.index("b"): 1.5, SPACE3.index("c"): 2.0}),
    }
    path = tmp_path / "nouns.tsv"
    save_vectors(path, vectors, SPACE3)
    assert load_vectors(path, SPACE3) == vectors
    # deterministic: rewriting produces identical bytes
    first = path.read_bytes()
    save_vectors(path, vectors, SPACE3)
    assert path.read_bytes() == first


def test_save_vectors_returns_the_number_of_words_written(tmp_path):
    vectors = {"ant": vec(SPACE3, 0.0, 2.0), "cat": vec(SPACE3, 0.0), "dog": vec(SPACE3, 1.0)}
    assert save_vectors(tmp_path / "nouns.tsv", vectors, SPACE3) == 2  # cat writes no row


@pytest.mark.parametrize("bad", ["another space", "order 2"])
def test_save_vectors_refuses_a_value_after_a_valid_word(tmp_path, bad):
    # each value is checked as its rows are written: the rows already written
    # go with the temporary file, and a file already at the path stays as it was
    path = tmp_path / "nouns.tsv"
    save_vectors(path, {"ant": vec(SPACE3, 1.0)}, SPACE3)
    before = path.read_bytes()
    value = (vec(BasisRegistry("other", ("a", "b", "c")), 1.0) if bad == "another space"
             else kronecker(vec(SPACE3, 1.0), vec(SPACE3, 1.0)))
    with pytest.raises(SpaceMismatchError, match="'dog' is not an order-1 tensor over 'three'"):
        save_vectors(path, {"cat": vec(SPACE3, 2.0), "dog": value}, SPACE3)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["nouns.tsv"]

def test_save_vectors_refuses_a_word_starting_with_hash(tmp_path):
    # its rows would read back as comments, and the word would be lost
    path = tmp_path / "nouns.tsv"
    vectors = {"dog": vec(SPACE3, 1.0), "#tag": vec(SPACE3, 2.0)}
    with pytest.raises(ValueError, match="'#tag' starts with '#'"):
        save_vectors(path, vectors, SPACE3)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("word", ["do\tg", "do\ng", "dog\r"])
def test_save_vectors_refuses_a_word_holding_a_tab_or_line_break(tmp_path, word):
    # load_vectors splits its lines there: the file would not read back
    path = tmp_path / "nouns.tsv"
    with pytest.raises(ValueError, match="holds a tab or line break"):
        save_vectors(path, {"cat": vec(SPACE3, 1.0), word: vec(SPACE3, 2.0)}, SPACE3)
    assert list(tmp_path.iterdir()) == []


def test_file_header_is_validated(tmp_path):
    v = WeightedVector(SPACE3, {SPACE3.index("a"): 1.0})
    path = tmp_path / "v.tsv"
    save_tensor(path, v)
    with pytest.raises(ValueError):
        load_tensor(path, SPACE2)
    path.write_text("no header\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_tensor(path, SPACE3)


def test_unknown_label_and_duplicates_rejected(tmp_path):
    path = tmp_path / "v.tsv"
    path.write_text("#space\tthree\tplain\nzz\t1.0\n", encoding="utf-8")
    with pytest.raises(KeyError):
        load_tensor(path, SPACE3)
    path.write_text("#space\tthree\tplain\na\t1.0\na\t2.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_tensor(path, SPACE3)


def test_atomic_write_leaves_nothing_on_failure(tmp_path):
    target = tmp_path / "out.tsv"
    with pytest.raises(RuntimeError):
        with atomic_write(target) as handle:
            handle.write("partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


# A process that sets the umask before it imports gramsem, then writes one
# file through atomic_write and one through open.
UMASK_SCRIPT = """
import os, sys
os.umask(int(sys.argv[1], 8))
from gramsem.vectorspace import _write_lines
_write_lines(sys.argv[2], ["x"])
open(sys.argv[3], "w").close()
"""


@pytest.mark.parametrize("umask, mode", [("022", 0o644), ("077", 0o600)])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask, mode):
    # mkstemp makes its file 0600; the written file has 0o666 less the umask
    written, opened = tmp_path / "written.tsv", tmp_path / "opened.tsv"
    src = os.path.dirname(os.path.dirname(os.path.abspath(gramsem.__file__)))
    subprocess.run([sys.executable, "-c", UMASK_SCRIPT, umask, str(written), str(opened)],
                   env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    assert stat.S_IMODE(written.stat().st_mode) == mode
    assert stat.S_IMODE(opened.stat().st_mode) == mode


def test_load_tensor_checks_the_order_line(tmp_path):
    path = tmp_path / "t.tsv"
    save_tensor(path, SemTensor(SPACE2, 2, {(0, 1): 1.5}))
    assert load_tensor(path, SPACE2).order == 2
    path.write_text("#space\ttwo\tplain\n#order\t2\n#order\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{path}:3: order 3 is not 2"):
        load_tensor(path, SPACE2)
    path.write_text("#space\ttwo\tplain\n#order\t5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{path}:2: order 5 is not 1-3"):
        load_tensor(path, SPACE2)
    path.write_text("#space\ttwo\tplain\n#order\t1\n", encoding="utf-8")
    assert load_tensor(path, SPACE2) == SemTensor(SPACE2, 1, {})


def test_load_tensor_rejects_order_none(tmp_path):
    # 'None' names no order, also while no order is known yet
    path = tmp_path / "t.tsv"
    path.write_text("#space\ttwo\tplain\n#order\tNone\na\tb\t1.5\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match=f"{path}:2: order None is not 1-3"):
        load_tensor(path, SPACE2)
    path.write_text("#space\ttwo\tplain\n#order\t2\n#order\tNone\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match=f"{path}:3: order None is not 2"):
        load_tensor(path, SPACE2)
