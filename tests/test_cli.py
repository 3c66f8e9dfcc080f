"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import tempfile
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtures import SAMPLE_LABELS, SAMPLE_NOUNS, SAMPLE_SPACE, sample_vector, show_oracle_entry
from oracles import oracle_count_cooccurrence, oracle_save_vectors
from gramsem.benchmark import two_sense_benchmark
from gramsem.cli import main
from gramsem.corpus import read_basis
from gramsem.vectorspace import WeightedVector, load_tensor, load_vectors, save_vectors


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_fields(err):
    for line in err.splitlines():
        if line.startswith("summary\t"):
            return dict(field.split("=", 1) for field in line.split("\t")[1:])
    raise AssertionError(f"no summary line in stderr: {err!r}")


@pytest.fixture
def tiny_world(tmp_path):
    (tmp_path / "corpus.txt").write_text(
        "red dog barks\nred cat naps\ndog naps\n", encoding="utf-8"
    )
    (tmp_path / "basis.txt").write_text("red\nnaps\n", encoding="utf-8")
    return tmp_path


def test_build_nouns_hand_counts(tiny_world, capsys):
    out_path = tiny_world / "nouns.tsv"
    code, _, err = run(
        capsys,
        "build-nouns",
        "--corpus", str(tiny_world / "corpus.txt"),
        "--basis", str(tiny_world / "basis.txt"),
        "--weighting", "raw",
        "--out", str(out_path),
    )
    assert code == 0
    assert summary_fields(err)["documents"] == "3"
    space = read_basis(tiny_world / "basis.txt", name="N")
    vectors = load_vectors(out_path, space)
    assert vectors["dog"].labelled() == {"red": 1.0, "naps": 1.0}
    assert vectors["cat"].labelled() == {"red": 1.0, "naps": 1.0}
    assert vectors["barks"].labelled() == {"red": 1.0}
    assert vectors["red"].labelled() == {"naps": 1.0}
    assert vectors["naps"].labelled() == {"red": 1.0}


def test_build_nouns_tfidf_and_determinism(tiny_world, capsys):
    out_path = tiny_world / "nouns.tsv"
    args = (
        "build-nouns",
        "--corpus", str(tiny_world / "corpus.txt"),
        "--basis", str(tiny_world / "basis.txt"),
        "--out", str(out_path),
    )
    assert run(capsys, *args)[0] == 0
    first = out_path.read_bytes()
    assert run(capsys, *args)[0] == 0
    assert out_path.read_bytes() == first  # byte-identical rerun
    space = read_basis(tiny_world / "basis.txt", name="N")
    vectors = load_vectors(out_path, space)
    # red and naps each occur in 2 of 3 documents
    assert vectors["dog"].get(space.index("red")) == pytest.approx(math.log(3 / 2), rel=1e-12)


def test_build_nouns_errors(tiny_world, capsys):
    empty_basis = tiny_world / "empty.txt"
    empty_basis.write_text("", encoding="utf-8")
    code, _, err = run(
        capsys,
        "build-nouns",
        "--corpus", str(tiny_world / "corpus.txt"),
        "--basis", str(empty_basis),
    )
    assert code == 1 and "empty" in err
    code, _, err = run(
        capsys,
        "build-nouns",
        "--corpus", str(tiny_world / "nope.txt"),
        "--basis", str(tiny_world / "basis.txt"),
    )
    assert code == 1 and "nope.txt" in err


def test_build_nouns_names_its_faults_in_order(tmp_path, capsys):
    # the window is checked before the corpus is opened, and an empty corpus
    # is known only once the whole of it has been read
    (tmp_path / "basis.txt").write_text("red\n", encoding="utf-8")
    (tmp_path / "blank.txt").write_text("\n  \n", encoding="utf-8")
    missing, blank, out = tmp_path / "missing.txt", tmp_path / "blank.txt", tmp_path / "nouns.tsv"
    common = ("--basis", str(tmp_path / "basis.txt"), "--out", str(out))
    assert run(capsys, "build-nouns", "--corpus", str(missing), "--window", "0", *common) == (
        1, "", "gramsem: window must be >= 1\n")
    code, stdout, err = run(capsys, "build-nouns", "--corpus", str(missing), *common)
    assert (code, stdout) == (1, "") and err.count("\n") == 1 and str(missing) in err
    assert run(capsys, "build-nouns", "--corpus", str(blank), *common) == (
        1, "", f"gramsem: corpus file {blank} has no documents\n")
    assert not out.exists()


@pytest.fixture
def sample_world(tmp_path):
    """The four-base plain space with its two-sentence verb corpus, on disk."""
    basis = tmp_path / "basis.txt"
    basis.write_text("".join(f"{label}\n" for label in SAMPLE_LABELS), encoding="utf-8")
    semantics = tmp_path / "sem"
    semantics.mkdir()
    save_vectors(
        semantics / "nouns.tsv",
        {name: sample_vector(name) for name in SAMPLE_NOUNS},
        SAMPLE_SPACE,
    )
    triples = tmp_path / "triples.tsv"
    triples.write_text(
        "map\tshow\tlocation\ntable\tshow\tresult\nghost\tshow\tresult\n",
        encoding="utf-8",
    )
    return tmp_path


def test_build_verb_matches_oracle(sample_world, capsys):
    code, _, err = run(
        capsys,
        "build-verb", "show",
        "--triples", str(sample_world / "triples.tsv"),
        "--basis", str(sample_world / "basis.txt"),
        "--semantics-dir", str(sample_world / "sem"),
    )
    assert code == 0
    fields = summary_fields(err)
    assert fields["occurrences"] == "2"
    assert fields["skipped_triples"] == "1"  # the unknown noun 'ghost'
    tensor = load_tensor(sample_world / "sem" / "verbs" / "show.tsv", SAMPLE_SPACE)
    for i in range(4):
        for j in range(4):
            assert tensor.get((i, j)) == show_oracle_entry(i, j)


def test_build_verb_absent_and_all_skipped(sample_world, capsys):
    code, _, err = run(
        capsys,
        "build-verb", "vanish",
        "--triples", str(sample_world / "triples.tsv"),
        "--basis", str(sample_world / "basis.txt"),
        "--semantics-dir", str(sample_world / "sem"),
    )
    assert code == 1 and "vanish" in err
    # verb present but every occurrence skipped: a zero tensor file
    (sample_world / "triples.tsv").write_text("ghost\tshow\tspook\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        "build-verb", "show",
        "--triples", str(sample_world / "triples.tsv"),
        "--basis", str(sample_world / "basis.txt"),
        "--semantics-dir", str(sample_world / "sem"),
    )
    assert code == 0
    assert summary_fields(err)["occurrences"] == "0"
    tensor = load_tensor(sample_world / "sem" / "verbs" / "show.tsv", SAMPLE_SPACE)
    assert tensor.is_zero() and tensor.order == 2


def test_build_verb_other_arities(sample_world, capsys):
    triples = sample_world / "triples.tsv"
    triples.write_text(
        "map\tglow\nresult\tglow\nmap\thand\ttable\tresult\nmap\tglow\textra\n",
        encoding="utf-8",
    )
    base_args = (
        "--triples", str(triples),
        "--basis", str(sample_world / "basis.txt"),
        "--semantics-dir", str(sample_world / "sem"),
    )
    code, _, err = run(capsys, "build-verb", "glow", *base_args)
    assert code == 0
    fields = summary_fields(err)
    # the transitive 'map glow extra' row conflicts with the intransitive
    # reading fixed by the first record and is skipped
    assert fields["occurrences"] == "2" and fields["skipped_triples"] == "1"
    glow = load_tensor(sample_world / "sem" / "verbs" / "glow.tsv", SAMPLE_SPACE)
    assert glow.order == 1
    for i in range(4):
        expected = SAMPLE_NOUNS["map"][i] + SAMPLE_NOUNS["result"][i]
        assert glow.get(i) == expected
    code, _, err = run(capsys, "build-verb", "hand", *base_args)
    assert code == 0
    hand = load_tensor(sample_world / "sem" / "verbs" / "hand.tsv", SAMPLE_SPACE)
    assert hand.order == 3
    assert hand.get((0, 0, 0)) == pytest.approx(
        SAMPLE_NOUNS["map"][0] * SAMPLE_NOUNS["table"][0] * SAMPLE_NOUNS["result"][0]
    )


def test_build_adj(sample_world, capsys):
    pairs = sample_world / "adjectives.tsv"
    pairs.write_text("big\ttable\nbig\tmap\nbig\tghost\nsmall\tmap\n", encoding="utf-8")
    code, _, err = run(
        capsys,
        "build-adj", "big",
        "--triples", str(pairs),
        "--basis", str(sample_world / "basis.txt"),
        "--semantics-dir", str(sample_world / "sem"),
    )
    assert code == 0
    fields = summary_fields(err)
    assert fields["occurrences"] == "2" and fields["skipped_pairs"] == "1"
    tensor = load_tensor(sample_world / "sem" / "adjectives" / "big.tsv", SAMPLE_SPACE)
    merged = {
        i: SAMPLE_NOUNS["table"][i] + SAMPLE_NOUNS["map"][i] for i in range(4)
    }
    assert tensor.entries == {i: w for i, w in merged.items() if w}
    code, _, err = run(
        capsys,
        "build-adj", "tiny",
        "--triples", str(pairs),
        "--basis", str(sample_world / "basis.txt"),
        "--semantics-dir", str(sample_world / "sem"),
    )
    assert code == 1 and "tiny" in err


def test_build_adj_and_build_verb_of_one_argument_agree(sample_world, capsys):
    # 'W' as an adjective of each noun and as an intransitive verb of each
    # noun sums the same vectors: the two commands write the same rows
    (sample_world / "pairs.tsv").write_text("W\tmap\nW\tghost\nW\tresult\n", encoding="utf-8")
    (sample_world / "triples.tsv").write_text("map\tW\nghost\tW\nresult\tW\n", encoding="utf-8")
    common = ("--basis", str(sample_world / "basis.txt"),
              "--semantics-dir", str(sample_world / "sem"))
    code, _, err = run(capsys, "build-adj", "W",
                       "--triples", str(sample_world / "pairs.tsv"), *common)
    assert code == 0
    adjective = summary_fields(err)
    code, _, err = run(capsys, "build-verb", "W",
                       "--triples", str(sample_world / "triples.tsv"), *common)
    assert code == 0
    verb = summary_fields(err)
    assert (adjective["occurrences"], adjective["skipped_pairs"]) == ("2", "1")
    assert (verb["occurrences"], verb["skipped_triples"]) == ("2", "1")
    written = [sample_world / "sem" / sub / "W.tsv" for sub in ("adjectives", "verbs")]
    assert written[0].read_bytes() == written[1].read_bytes()


@pytest.fixture(scope="module")
def benchmark_files(tmp_path_factory):
    world = two_sense_benchmark()
    directory = tmp_path_factory.mktemp("bench")
    paths = world.write_files(directory)
    # build the semantics directory through the CLI itself
    semantics = directory / "sem"
    semantics.mkdir()
    paths["semantics"] = str(semantics)
    assert main([
        "build-nouns",
        "--corpus", paths["corpus"],
        "--basis", paths["basis"],
        "--weighting", "raw",
        "--window", "2",
        "--out", str(semantics / "nouns.tsv"),
    ]) == 0
    for verb in ("charge", "storm", "bill"):
        assert main([
            "build-verb", verb,
            "--triples", paths["triples"],
            "--basis", paths["basis"],
            "--semantics-dir", str(semantics),
        ]) == 0
    return world, paths


def test_cli_built_semantics_match_library(benchmark_files):
    world, paths = benchmark_files
    from gramsem.composition import load_semantics

    space = read_basis(paths["basis"], name="N")
    lex = load_semantics(paths["semantics"], space)
    for word, vector in world.lex.vectors.items():
        if vector.is_zero():
            continue
        assert lex.vectors[word] == vector
    for verb, tensor in world.lex.tensors.items():
        assert lex.tensors[verb] == tensor


@pytest.mark.parametrize("weighting, window, digest", [
    ("raw", "2", "32822ae37a47bd5f83a9e7f3233d380122780ce15d46761c82fff81dbbc989e5"),  # README's
    ("tfidf", "5", "e74257091de818f17c78484be800018a854c241f17406256f7013250bc4a7810"),
])
def test_build_nouns_writes_the_pinned_bytes(benchmark_files, tmp_path, weighting, window, digest):
    # The bytes of nouns.tsv from the bundled benchmark: a count or a row
    # that drifts changes them.  Its documents are two tokens long, so the
    # edges of wider windows are left to test_corpus's neighbour-loop test.
    _, paths = benchmark_files
    out = tmp_path / "nouns.tsv"
    assert main([
        "build-nouns", "--corpus", paths["corpus"], "--basis", paths["basis"],
        "--weighting", weighting, "--window", window, "--out", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("word, digest", [
    ("charge", "3a2c93ee7a790986d5a9c5ebd8a3b27625ccff2309b01b796d05244b25fa570e"),
    ("storm", "606af207fbc1deb508431f7c67426189e362665e9cb1f5d70afd3db8d45bd707"),
    ("bill", "fc2622e973438ccb8002a0e2c26bea65c485d018b1c2d3c2ad1787ae13b197db"),
    ("fierce", "c4b942861ce8d6c19a15658c77c9e438445bf2032706d0bda5fe2758ec379b00"),
])
def test_build_verb_and_build_adj_write_the_pinned_bytes(benchmark_files, tmp_path, word, digest):
    # The tensor files of the README session, with build-adj as CI runs it.
    # The basis is words, so label order is not index order: a rank, a repr
    # or a row order that drifts changes these bytes.
    _, paths = benchmark_files
    out = tmp_path / f"{word}.tsv"
    common = ("--basis", paths["basis"], "--semantics-dir", paths["semantics"], "--out", str(out))
    if word == "fierce":
        records = tmp_path / "adjectives.tsv"
        records.write_text("fierce\tknight\nfierce\tarmy\nfierce\tghost\n", encoding="utf-8")
        assert main(["build-adj", word, "--triples", str(records), *common]) == 0
    else:
        assert main(["build-verb", word, "--triples", paths["triples"], *common]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# A hand-made world with a verb of each arity, an adjective and a noun that
# also modifies nouns ("stone"), counted with --weighting raw so that no
# libm log is involved: the digests do not depend on the platform.
ORDERS_FILES = {
    "corpus.txt": "old dog runs fast\nred cat naps\nbig man throws ball\ndog chases cat fast\n"
                  "man gives old bone fast\nstone wall old\nred ball big\ncat runs old\n"
                  "man chases big dog\nstone ball red\n",
    "basis.txt": "red\nbig\nold\nfast\nnaps\nruns\n",
    "triples.tsv": "dog\truns\ncat\truns\nman\truns\ndog\tchases\tcat\nman\tchases\tdog\n"
                   "cat\tchases\tball\nman\tgives\tdog\tbone\nman\tgives\tcat\tball\n",
    "adjectives.tsv": "big\tman\nbig\tball\nbig\tdog\nstone\twall\nstone\tball\n",
    "lexicon.tsv": "dog\tn\ncat\tn\nman\tn\nball\tn\nbone\tn\nwall\tn\nstone\tn\n"
                   "stone\tn n^l\nbig\tn n^l\nruns\tn^r s\nchases\tn^r s n^l\n"
                   "gives\tn^r s n^l n^l\n",
    "dataset.tsv": "p1\tdog runs\tcat runs\t6\tHIGH\n"
                   "p2\tbig dog runs\tdog chases cat\t3\tLOW\n"
                   "p3\tman chases dog\tman gives dog bone\t5\tHIGH\n"
                   "p4\tman gives dog stone ball\tbig man runs\t2\tLOW\n"
                   "p5\tcat chases stone ball\tcat chases big ball\t7\tHIGH\n"
                   "p6\tstone wall runs\tbig cat runs\t1\tLOW\n",
}

ORDERS_DIGESTS = {
    "nouns.tsv": "8296e28cd7b0ade6d35aef19cee3dded7a1b0fa0d85b8e21c8d212678cd3d6ab",
    "verbs/runs.tsv": "c800b7b839e1586d41f1717ae11b535c1ed814351b2a26d02d58ac1c3fd65f46",
    "verbs/chases.tsv": "c5bb11b4b312c030b5afd12b3454da3b97ff012dacff3a44b46735d7481d28a1",
    "verbs/gives.tsv": "47517b3c35713439bca51de4a7e0c080fdca155d51db4e9254e641ef70e946e9",
    "adjectives/big.tsv": "d837e1c91a2fc1f3e21ce44d461d12ad741dae9bc8b6c13b4a8b1a1f1805a433",
    "adjectives/stone.tsv": "726b41aa77e53e31e036a433430ae9546d86fa318d6d35739062668f7f2aa520",
    "report.tsv": "07b1d13a237d82bdcb0d480d4b28f43a1bb1d22d696b1f2afaa63f1496ee1f67",
    "sim": "5ee5e38b1c86b602e195dac1f5169b7b746c2978f8b36f5dcb507c28e83e5494",
}


def test_every_order_writes_and_scores_the_pinned_bytes(tmp_path, capsys):
    # Orders 1-3 end to end: the tensor files, eval's report over all five
    # models, and a sim that pads an order-1 meaning to order 3.
    for name, text in ORDERS_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    files = {name: str(tmp_path / name) for name in ORDERS_FILES}
    sem = tmp_path / "sem"
    sem.mkdir()
    common = ["--basis", files["basis.txt"], "--semantics-dir", str(sem)]
    assert main(["build-nouns", "--corpus", files["corpus.txt"], "--basis", files["basis.txt"],
                 "--weighting", "raw", "--window", "2", "--out", str(sem / "nouns.tsv")]) == 0
    for verb in ("runs", "chases", "gives"):
        assert main(["build-verb", verb, "--triples", files["triples.tsv"], *common]) == 0
    for adjective in ("big", "stone"):
        assert main(["build-adj", adjective, "--triples", files["adjectives.tsv"], *common]) == 0
    query = ["--lexicon", files["lexicon.tsv"], *common]
    assert main(["eval", "--dataset", files["dataset.tsv"], *query,
                 "--out", str(sem / "report.tsv")]) == 0
    capsys.readouterr()
    assert main(["sim", "big dog runs", "man gives dog stone ball", *query]) == 0
    got = {name: hashlib.sha256((sem / name).read_bytes()).hexdigest()
           for name in ORDERS_DIGESTS if name != "sim"}
    got["sim"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == ORDERS_DIGESTS


# Documents of 14 to 16 tokens, longer than 2 * window + 1 at --window 5, so
# windows are cut at both ends of a document and also end inside it.
WINDOW_CORPUS = (
    "ant bee cat dog eel fox gnu hen ibis jay kiwi lark ant bee",
    "lark kiwi jay ibis hen gnu fox eel dog cat bee ant lark kiwi jay",
    "cat cat dog ant fox fox eel bee hen jay gnu ant kiwi lark ibis cat",
)
WINDOW_BASIS = ("lark", "bee", "dog", "fox", "cat", "hen", "jay")


@pytest.mark.parametrize("window, digest", [
    ("2", "cde5b29cf183bb94ed84f5f51f50afd3fad97ded2cf0a899e9db55436c47c2fe"),
    ("5", "c13069ede774daddffba514795fb971f47e2859294691b4c264a89afc2962487"),
])
def test_build_nouns_counts_to_the_window_edges(tmp_path, window, digest):
    # The expected bytes come from the neighbour-loop count and the
    # row-by-row writer of tests/oracles.py, not from the program.
    corpus, basis = tmp_path / "corpus.txt", tmp_path / "basis.txt"
    corpus.write_text("".join(f"{doc}\n" for doc in WINDOW_CORPUS), encoding="utf-8")
    basis.write_text("".join(f"{label}\n" for label in WINDOW_BASIS), encoding="utf-8")
    out, expected = tmp_path / "nouns.tsv", tmp_path / "expected.tsv"
    assert main(["build-nouns", "--corpus", str(corpus), "--basis", str(basis),
                 "--weighting", "raw", "--window", window, "--out", str(out)]) == 0
    space = read_basis(basis, name="N")
    documents = [doc.split() for doc in WINDOW_CORPUS]
    targets = sorted({token for doc in documents for token in doc})
    acc = oracle_count_cooccurrence(documents, targets, space, int(window))
    vectors = {word: WeightedVector(space, {i: float(c) for i, c in row.items()})
               for word, row in acc.counts.items()}
    oracle_save_vectors(expected, vectors, space)
    assert out.read_bytes() == expected.read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_build_nouns_refuses_a_basis_label_holding_a_tab(tmp_path, capsys):
    # read back, the rows naming 'a<TAB>b' would split at its tab
    (tmp_path / "corpus.txt").write_text("a b c\n", encoding="utf-8")
    basis = tmp_path / "basis.txt"
    basis.write_text("c\na\tb\n", encoding="utf-8")
    code, out, err = run(capsys, "build-nouns", "--corpus", str(tmp_path / "corpus.txt"),
                         "--basis", str(basis), "--out", str(tmp_path / "nouns.tsv"))
    assert (code, out) == (1, "")
    assert err == f"gramsem: {basis}:2: basis label 'a\\tb' holds a tab\n"
    assert sorted(os.listdir(tmp_path)) == ["basis.txt", "corpus.txt"]


def test_sim_command(benchmark_files, capsys):
    world, paths = benchmark_files
    base_args = (
        "--lexicon", paths["lexicon"],
        "--basis", paths["basis"],
        "--semantics-dir", paths["semantics"],
    )
    code, out, _ = run(capsys, "sim", "knight charge enemy", "knight charge enemy", *base_args)
    assert code == 0 and out.strip() == "1.000000"
    code, out, _ = run(capsys, "sim", "knight charge enemy", "knight storm enemy", *base_args)
    assert code == 0 and out.strip() == "1.000000"
    # cross-sense landmark shares no tensor support: similarity is 0
    code, out, _ = run(capsys, "sim", "knight charge enemy", "knight bill enemy", *base_args)
    assert code == 0 and out.strip() == "0.000000"
    code, out, _ = run(
        capsys, "sim", "knight charge enemy", "knight storm enemy", "--model", "multiply", *base_args
    )
    assert code == 0 and 0.0 <= float(out.strip()) <= 1.0
    code, _, err = run(capsys, "sim", "charge knight enemy", "knight storm enemy", *base_args)
    assert code == 1 and "reduce" in err


def test_eval_command(benchmark_files, capsys, tmp_path):
    world, paths = benchmark_files
    report_path = tmp_path / "report.tsv"
    code, out, _ = run(
        capsys,
        "eval",
        "--dataset", paths["dataset"],
        "--lexicon", paths["lexicon"],
        "--basis", paths["basis"],
        "--semantics-dir", paths["semantics"],
        "--model", "categorical",
        "--model", "multiply",
        "--model", "verb_baseline",
        "--out", str(report_path),
    )
    assert code == 0
    assert "categorical" in out and "Model" in out
    rows = {}
    lines = report_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model\tmean_high\tmean_low\trho"
    for line in lines[1:]:
        model, mean_high, mean_low, rho = line.split("\t")
        rows[model] = (float(mean_high), float(mean_low), float(rho))
    assert rows["categorical"][2] > rows["multiply"][2]
    assert rows["categorical"][0] > rows["categorical"][1]
    assert abs(rows["verb_baseline"][2]) <= 0.1


def test_eval_scores_a_repeated_model_once(benchmark_files, capsys):
    _, paths = benchmark_files
    code, out, err = run(
        capsys,
        "eval",
        "--dataset", paths["dataset"],
        "--lexicon", paths["lexicon"],
        "--basis", paths["basis"],
        "--semantics-dir", paths["semantics"],
        "--model", "add",
        "--model", "add",
    )
    assert code == 0
    assert summary_fields(err) == {"models": "1", "scored": "1", "degenerate": ""}
    assert [line.split()[0] for line in out.splitlines()] == ["Model", "add"]


def test_comment_and_blank_lines_change_no_output(benchmark_files, tmp_path, capsys):
    # Lines the writers never write go through the row checker, which skips them.
    _, paths = benchmark_files
    edited = tmp_path / "sem"
    shutil.copytree(paths["semantics"], edited)
    for name, after in (("nouns.tsv", 1), (os.path.join("verbs", "charge.tsv"), 2)):
        lines = (edited / name).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[after:after] = ["# a comment\n", "\n"]
        (edited / name).write_text("".join(lines), encoding="utf-8")
    outputs = []
    for sem in (paths["semantics"], str(edited)):
        files = ("--lexicon", paths["lexicon"], "--basis", paths["basis"], "--semantics-dir", sem)
        report = tmp_path / f"report-{len(outputs)}.tsv"
        sim = run(capsys, "sim", "knight charge enemy", "knight storm enemy", *files)
        evaluation = run(capsys, "eval", "--dataset", paths["dataset"], *files, "--out", str(report))
        outputs.append((sim, evaluation, report.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0][0] == outputs[0][1][0] == 0


@pytest.mark.parametrize("command", ["sim", "eval"])
def test_a_word_missing_from_the_lexicon_names_the_lexicon(benchmark_files, tmp_path, capsys,
                                                           command):
    _, paths = benchmark_files
    lexicon = tmp_path / "lexicon.tsv"
    with open(paths["lexicon"], encoding="utf-8") as handle:
        lexicon.write_text("".join(line for line in handle if line != "enemy\tn\n"), "utf-8")
    files = ("--lexicon", str(lexicon), "--basis", paths["basis"],
             "--semantics-dir", paths["semantics"])
    if command == "sim":
        argv = ("sim", "knight charge enemy", "knight storm enemy", *files)
    else:
        argv = ("eval", "--dataset", paths["dataset"], *files, "--out", str(tmp_path / "r.tsv"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"gramsem: {lexicon}: word 'enemy' is not in the lexicon\n"
    assert sorted(os.listdir(tmp_path)) == ["lexicon.tsv"]
    # A fault the lexicon reader finds names path:line once.
    lexicon.write_text("knight\n", "utf-8")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"gramsem: {lexicon}:1: expected 'word<TAB>type'\n"


def test_duplicate_tensor_names_both_files(benchmark_files, tmp_path, capsys):
    _, paths = benchmark_files
    sem = tmp_path / "sem"
    shutil.copytree(paths["semantics"], sem)
    (sem / "adjectives").mkdir()
    shutil.copy(sem / "verbs" / "bill.tsv", sem / "adjectives" / "bill.tsv")
    code, out, err = run(
        capsys, "sim", "knight charge enemy", "knight bill enemy",
        "--lexicon", paths["lexicon"], "--basis", paths["basis"], "--semantics-dir", str(sem),
    )
    assert code == 1 and out == ""
    assert err == (
        f"gramsem: {sem / 'adjectives' / 'bill.tsv'}: duplicate tensor definition for 'bill',"
        f" also in {sem / 'verbs' / 'bill.tsv'}\n"
    )


# --- a tensor file is read when a query first needs it -------------------------------


def tensor_reads(monkeypatch):
    """The tensor files each later command parses, in order: every
    ``load_tensor`` reads its rows through ``vectorspace._read_rows``."""
    from gramsem import vectorspace

    reads, read_rows = [], vectorspace._read_rows

    def counted(path, space, named, words=None):
        if not named:
            reads.append(os.path.basename(path))
        return read_rows(path, space, named, words)

    monkeypatch.setattr(vectorspace, "_read_rows", counted)
    return reads


@pytest.mark.parametrize("model, read", [
    ("add", []),
    ("multiply", []),
    ("weighted_add", []),
    ("categorical", ["charge.tsv", "storm.tsv"]),
    ("verb_baseline", ["charge.tsv", "storm.tsv"]),
])
def test_sim_parses_only_the_tensors_its_model_needs(benchmark_files, capsys, monkeypatch,
                                                     model, read):
    _, paths = benchmark_files
    reads = tensor_reads(monkeypatch)
    code, _, _ = run(capsys, "sim", "knight charge enemy", "knight storm enemy",
                     "--model", model, "--lexicon", paths["lexicon"], "--basis", paths["basis"],
                     "--semantics-dir", paths["semantics"])
    assert code == 0 and reads == read


def test_eval_parses_each_tensor_file_at_most_once(benchmark_files, capsys, monkeypatch):
    _, paths = benchmark_files
    reads = tensor_reads(monkeypatch)
    code, _, _ = run(capsys, "eval", "--dataset", paths["dataset"], "--lexicon", paths["lexicon"],
                     "--basis", paths["basis"], "--semantics-dir", paths["semantics"])
    assert code == 0 and sorted(reads) == ["bill.tsv", "charge.tsv", "storm.tsv"]


@pytest.mark.parametrize("model", ["add", "multiply", "weighted_add"])
def test_a_folding_eval_opens_each_tensor_file_once(benchmark_files, capsys, monkeypatch, model):
    # each verb is in many sentences; its order is read from its file once
    from gramsem import composition

    _, paths = benchmark_files
    reads, opened, open_text = tensor_reads(monkeypatch), [], composition.open_text

    def counted(path, *args):
        opened.append(os.path.basename(path))
        return open_text(path, *args)

    monkeypatch.setattr(composition, "open_text", counted)
    code, _, _ = run(capsys, "eval", "--model", model, "--dataset", paths["dataset"],
                     "--lexicon", paths["lexicon"], "--basis", paths["basis"],
                     "--semantics-dir", paths["semantics"])
    assert code == 0 and reads == []
    assert sorted(opened) == ["bill.tsv", "charge.tsv", "storm.tsv"]


def test_a_fault_in_a_tensor_file_no_query_needs_ends_nothing(benchmark_files, tmp_path, capsys):
    # sim reads no bill.tsv, so its bad row changes nothing; eval scores
    # 'knight bill enemy', so it reads the file and names the row
    _, paths = benchmark_files
    sem = tmp_path / "sem"
    shutil.copytree(paths["semantics"], sem)
    bill = sem / "verbs" / "bill.tsv"
    with open(bill, "a", encoding="utf-8") as handle:
        handle.write("nope\tnope\t1.0\n")
    lineno = len(bill.read_text(encoding="utf-8").splitlines())
    outputs = []
    for directory in (paths["semantics"], str(sem)):
        outputs.append(run(capsys, "sim", "knight charge enemy", "knight storm enemy",
                           "--lexicon", paths["lexicon"], "--basis", paths["basis"],
                           "--semantics-dir", directory))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    code, out, err = run(capsys, "eval", "--dataset", paths["dataset"], "--lexicon",
                         paths["lexicon"], "--basis", paths["basis"], "--semantics-dir", str(sem))
    assert (code, out) == (1, "")
    assert err == f"gramsem: {bill}:{lineno}: label 'nope' not in space 'N'\n"


def military(paths, directory):
    """The dataset's first twelve rows, whose sentences hold no word of the
    'bill' sense's nouns (client, clinic ...), written under ``directory``."""
    lines = open(paths["dataset"], encoding="utf-8").readlines()[:12]
    (directory / "military.tsv").write_text("".join(lines), encoding="utf-8")
    return str(directory / "military.tsv")


def unused_noun(paths, dataset):
    """A word of nouns.tsv, with more than one row, that neither the sentences
    of ``dataset`` nor the arguments of storm's triples hold: no command below keeps it."""
    used = set()
    for line in open(dataset, encoding="utf-8"):
        used.update(" ".join(line.split("\t")[1:3]).split())
    for line in open(paths["triples"], encoding="utf-8"):
        subject, verb, *objects = line.rstrip("\n").split("\t")
        if verb == "storm":
            used.update([subject, *objects])
    rows = open(os.path.join(paths["semantics"], "nouns.tsv"), encoding="utf-8").readlines()[1:]
    words = [row.split("\t")[0] for row in rows]
    return next(w for w in dict.fromkeys(words) if w not in used and words.count(w) > 1)


def nouns_commands(paths, dataset, sem, out):
    """sim under each model, eval of ``dataset`` and build-verb storm on the semantics ``sem``."""
    files = ["--basis", paths["basis"], "--semantics-dir", str(sem)]
    sims = [["sim", "knight charge enemy", "knight storm enemy", "--lexicon", paths["lexicon"],
             *files, "--model", model] for model in ("categorical", "add", "verb_baseline")]
    return [*sims,
            ["eval", "--dataset", dataset, "--lexicon", paths["lexicon"], *files,
             "--out", str(out / "report.tsv")],
            ["build-verb", "storm", "--triples", paths["triples"], *files,
             "--out", str(out / "storm.tsv")]]


def test_splitting_an_unused_words_rows_changes_no_output(benchmark_files, tmp_path, capsys,
                                                          monkeypatch):
    # Each command keeps only the vectors of the words it uses.  Its rows
    # split around another word's, the unused word is met again after its
    # vector was let go, and nouns.tsv is read once more, keeping every word.
    from gramsem import vectorspace

    _, paths = benchmark_files
    dataset = military(paths, tmp_path)
    word = unused_noun(paths, dataset)
    sem = tmp_path / "sem"
    shutil.copytree(paths["semantics"], sem)
    nouns = sem / "nouns.tsv"
    lines = nouns.read_text(encoding="utf-8").splitlines(keepends=True)
    first = next(line for line in lines if line.startswith(f"{word}\t"))
    lines.remove(first)
    nouns.write_text("".join(lines + [first]), encoding="utf-8")
    reads, read_rows = [], vectorspace._read_rows

    def counted(path, space, named, words=None):
        if named:
            reads.append(words)
        return read_rows(path, space, named, words)

    monkeypatch.setattr(vectorspace, "_read_rows", counted)
    outputs = []
    for k, directory in enumerate((paths["semantics"], sem)):
        out = tmp_path / f"out{k}"
        out.mkdir()
        runs = [run(capsys, *argv) for argv in nouns_commands(paths, dataset, directory, out)]
        runs = [(code, stdout, err.replace(str(out), "OUT")) for code, stdout, err in runs]
        files = {name: (out / name).read_bytes() for name in ("report.tsv", "storm.tsv")}
        outputs.append((runs, files))
        assert all(code == 0 for code, _, _ in runs)
        # each command keeps its words; of the split file, it reads all once more
        assert [words is None for words in reads] == [False, *[True] * k] * len(runs)
        assert not any(word in words for words in reads if words is not None)
        reads.clear()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", range(5), ids=["sim-categorical", "sim-add",
                                                    "sim-verb_baseline", "eval", "build-verb"])
def test_a_bad_row_of_a_word_no_command_keeps_ends_it(benchmark_files, tmp_path, capsys, command):
    _, paths = benchmark_files
    dataset = military(paths, tmp_path)
    word = unused_noun(paths, dataset)
    sem = tmp_path / "sem"
    shutil.copytree(paths["semantics"], sem)
    nouns = sem / "nouns.tsv"
    lines = nouns.read_text(encoding="utf-8").splitlines(keepends=True)
    lineno = max(n for n, line in enumerate(lines, 1) if line.startswith(f"{word}\t")) + 1
    lines.insert(lineno - 1, f"{word}\tnope\t1.0\n")  # among the word's own rows
    nouns.write_text("".join(lines), encoding="utf-8")
    argv = nouns_commands(paths, dataset, sem, tmp_path)[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"gramsem: {nouns}:{lineno}: label 'nope' not in space 'N'\n"
    assert not os.path.exists(tmp_path / "report.tsv") and not os.path.exists(tmp_path / "storm.tsv")


@pytest.mark.parametrize("command, kind", [("build-verb", "verb"), ("build-adj", "adjective")])
def test_a_word_absent_from_the_records_is_named_before_a_bad_nouns_row(
        benchmark_files, tmp_path, capsys, command, kind):
    # The records file is read first: a word it does not hold ends the command
    # before any row of nouns.tsv is parsed.
    _, paths = benchmark_files
    records = paths["triples"]
    if kind == "adjective":
        records = str(tmp_path / "adjectives.tsv")
        (tmp_path / "adjectives.tsv").write_text("fierce\tknight\nfierce\tarmy\n", encoding="utf-8")
    sem = tmp_path / "sem"
    shutil.copytree(paths["semantics"], sem)
    with open(sem / "nouns.tsv", "a", encoding="utf-8") as handle:
        handle.write("knight\tnope\t1.0\n")
    code, out, err = run(capsys, command, "zzz", "--triples", records,
                         "--basis", paths["basis"], "--semantics-dir", str(sem))
    assert (code, out) == (1, "")
    assert err == f"gramsem: {kind} 'zzz' does not occur in {records}\n"
    assert not os.path.exists(sem / f"{kind}s" / "zzz.tsv")


@pytest.mark.parametrize("command", ["add", "categorical", "eval"])
def test_a_nouns_header_naming_another_space_fails_at_load(toy_world, capsys, command):
    # the space comes from nouns.tsv's header; a tensor file of the basis's
    # own space is then refused when the directory is loaded, naming both files
    nouns, chase = toy_world / "sem" / "nouns.tsv", toy_world / "sem" / "verbs" / "chase.tsv"
    lines = nouns.read_text(encoding="utf-8").splitlines(keepends=True)
    nouns.write_text("".join(["#space\txyz\tstructured\n", *lines[1:]]), encoding="utf-8")
    if command == "eval":
        code, out, err = query(capsys, toy_world, "eval")
    else:
        code, out, err = run(capsys, "sim", "dogs", "cats", "--model", command,
                             "--lexicon", str(toy_world / "lexicon.tsv"),
                             "--basis", str(toy_world / "basis.txt"),
                             "--semantics-dir", str(toy_world / "sem"))
    assert (code, out) == (1, "")
    assert err == (f"gramsem: {chase}:1: header '#space toy structured' is not"
                   f" '#space xyz structured' of {nouns}\n")


@pytest.mark.parametrize("model", ["add", "categorical", "verb_baseline"])
def test_a_tensor_header_naming_another_space_fails_every_model(toy_world, capsys, model):
    # load_semantics checks every tensor file's header against nouns.tsv's and names both
    chase = toy_world / "sem" / "verbs" / "chase.tsv"
    lines = chase.read_text(encoding="utf-8").splitlines(keepends=True)
    chase.write_text("".join(["#space\tother\tstructured\n", *lines[1:]]), encoding="utf-8")
    code, out, err = run(capsys, "sim", "dogs chase cats", "cats chase dogs", "--model", model,
                         "--lexicon", str(toy_world / "lexicon.tsv"),
                         "--basis", str(toy_world / "basis.txt"),
                         "--semantics-dir", str(toy_world / "sem"))
    assert (code, out) == (1, "")
    assert err == (f"gramsem: {chase}:1: header '#space other structured' is not"
                   f" '#space toy structured' of {toy_world / 'sem' / 'nouns.tsv'}\n")


def test_sim_on_structured_toy_space(tmp_path, capsys):
    from fixtures import (
        TOY_LABELS, TOY_NOUNS, TOY_SPACE, save_semantics, toy_chase, toy_fluffy, toy_vector,
    )
    from gramsem.composition import LexicalSemantics
    from gramsem.pregroup import save_lexicon, standard_lexicon

    (tmp_path / "basis.txt").write_text(
        "".join(f"{label}\n" for label in TOY_LABELS), encoding="utf-8"
    )
    lex = LexicalSemantics(
        TOY_SPACE,
        {name: toy_vector(name) for name in TOY_NOUNS},
        {"chase": toy_chase(), "fluffy": toy_fluffy()},
    )
    save_semantics(tmp_path / "sem", lex, adjectives=["fluffy"])
    grammar = standard_lexicon(
        nouns=list(TOY_NOUNS), transitive=["chase"], adjectives=["fluffy"]
    )
    save_lexicon(tmp_path / "lexicon.tsv", grammar)
    base_args = (
        "--lexicon", str(tmp_path / "lexicon.tsv"),
        "--basis", str(tmp_path / "basis.txt"),
        "--semantics-dir", str(tmp_path / "sem"),
    )
    code, out, _ = run(capsys, "sim", "dogs chase cats", "dogs chase cats", *base_args)
    assert code == 0 and out.strip() == "1.000000"
    code, out, _ = run(
        capsys, "sim", "fluffy dogs chase cats", "dogs chase cats", *base_args
    )
    assert code == 0 and 0.0 < float(out.strip()) <= 1.0


def test_eval_missing_dataset(benchmark_files, capsys):
    _, paths = benchmark_files
    code, _, err = run(
        capsys,
        "eval",
        "--dataset", "/does/not/exist.tsv",
        "--lexicon", paths["lexicon"],
        "--basis", paths["basis"],
        "--semantics-dir", paths["semantics"],
    )
    assert code == 1 and "exist.tsv" in err


def test_no_partial_outputs_on_failure(tiny_world, capsys):
    # the output's parent directory does not exist: the run must fail
    # cleanly without creating anything (atomic-write failure behaviour is
    # unit-tested in test_vectorspace)
    code, _, err = run(
        capsys,
        "build-nouns",
        "--corpus", str(tiny_world / "corpus.txt"),
        "--basis", str(tiny_world / "basis.txt"),
        "--out", str(tiny_world / "missing" / "nouns.tsv"),
    )
    assert code == 1 and "missing" in err
    assert not (tiny_world / "missing").exists()
    leftovers = [p for p in tiny_world.iterdir() if p.suffix == ".part"]
    assert leftovers == []


# --- malformed semantics files: one line naming path:line, exit 1 -------------


@pytest.fixture
def toy_world(tmp_path):
    """The structured toy space saved as a semantics directory, with a
    lexicon and a two-pair dataset, ready for sim and eval."""
    from fixtures import TOY_LABELS, TOY_NOUNS, TOY_SPACE, save_semantics, toy_chase, toy_vector
    from gramsem.composition import LexicalSemantics
    from gramsem.pregroup import save_lexicon, standard_lexicon

    (tmp_path / "basis.txt").write_text("".join(f"{x}\n" for x in TOY_LABELS), encoding="utf-8")
    lex = LexicalSemantics(
        TOY_SPACE, {name: toy_vector(name) for name in TOY_NOUNS}, {"chase": toy_chase()}
    )
    save_semantics(tmp_path / "sem", lex)
    save_lexicon(tmp_path / "lexicon.tsv", standard_lexicon(nouns=TOY_NOUNS, transitive=["chase"]))
    (tmp_path / "dataset.tsv").write_text(
        "p1\tdogs chase cats\tcats chase dogs\t6\tHIGH\n"
        "p2\tdogs chase cats\tbankers chase stock\t2\tLOW\n",
        encoding="utf-8",
    )
    return tmp_path


def query(capsys, world, command):
    common = ("--lexicon", str(world / "lexicon.tsv"), "--basis", str(world / "basis.txt"),
              "--semantics-dir", str(world / "sem"))
    if command == "sim":
        return run(capsys, "sim", "dogs chase cats", "cats chase dogs", *common)
    return run(capsys, "eval", "--dataset", str(world / "dataset.tsv"), "--model", "categorical",
               *common)


BAD_ROWS = {
    # case: (row appended to nouns.tsv, row appended to verbs/chase.tsv, message part)
    "unknown label": ("mice\targ-nope\t1.0", "arg-nope\targ-fluffy\t1.0", "'arg-nope' not in space"),
    "non-numeric weight": ("mice\targ-fluffy\tlots", "obj-buys\tobj-buys\tlots", "not a number"),
    "infinite weight": ("mice\targ-fluffy\tinf", "obj-buys\tobj-buys\t-inf", "non-finite"),
    "nan weight": ("mice\targ-fluffy\tnan", "obj-buys\tobj-buys\tnan", "non-finite"),
    "field count": ("mice\targ-fluffy", "obj-buys\t1.0", "expected"),
    "duplicate entry": ("dogs\targ-fluffy\t1.0", "arg-fluffy\targ-fluffy\t2.0", "duplicate"),
}


@pytest.mark.parametrize("command", ["sim", "eval"])
@pytest.mark.parametrize("which", ["nouns.tsv", "verbs/chase.tsv"])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_malformed_semantics_row_names_path_and_line(toy_world, capsys, case, which, command):
    noun_row, tensor_row, message = BAD_ROWS[case]
    path = toy_world / "sem" / which
    with open(path, "a", encoding="utf-8") as handle:
        handle.write((noun_row if which == "nouns.tsv" else tensor_row) + "\n")
    lineno = len(path.read_text(encoding="utf-8").splitlines())
    code, out, err = query(capsys, toy_world, command)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"gramsem: {path}:{lineno}: ") and message in err


def test_sim_and_eval_run_on_the_toy_world(toy_world, capsys):
    assert query(capsys, toy_world, "sim")[0] == 0
    assert query(capsys, toy_world, "eval")[0] == 0


# Drawn fields hold no digit, so a weight they replace is a number only as
# 'inf' or 'nan': a huge finite weight would make every categorical score 1.0
# and the model degenerate, a failure that is not the file's.
FIELD_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=6),
    st.sampled_from(["0", "-0", "2", "-1.5", "7", "toy", "plain", "arg-fluffy", "obj-buys"]),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_semantics_file_ends_sim_and_eval_cleanly(toy_world, data):
    # One line of nouns.tsv or the verb's tensor file loses a tab, has a field
    # replaced, gains a byte that is not UTF-8 or is repeated.  sim and eval
    # then succeed, or fail with one line naming that file and leave no --out.
    which = data.draw(st.sampled_from(["nouns.tsv", "verbs/chase.tsv"]))
    lines = (toy_world / "sem" / which).read_bytes().splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[k].split(b"\t")
    fault = data.draw(st.sampled_from(["drop a tab", "replace a field", "not UTF-8", "repeat"]))
    if fault == "drop a tab":
        j = data.draw(st.integers(1, len(fields) - 1))
        lines[k] = b"\t".join([*fields[:j - 1], fields[j - 1] + fields[j], *fields[j + 1:]])
    elif fault == "replace a field":
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(FIELD_TEXT).encode("utf-8")
        lines[k] = b"\t".join(fields)
    elif fault == "not UTF-8":
        cut = data.draw(st.integers(0, len(lines[k])))
        byte = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3("]))
        lines[k] = lines[k][:cut] + byte + lines[k][cut:]
    else:
        lines.insert(data.draw(st.integers(0, len(lines))), lines[k])
    with tempfile.TemporaryDirectory() as directory:
        sem = shutil.copytree(toy_world / "sem", os.path.join(directory, "sem"))
        path = os.path.join(sem, which)
        with open(path, "wb") as handle:
            handle.write(b"".join(line + b"\n" for line in lines))
        named = path
        if which == "nouns.tsv" and fault != "not UTF-8":
            # nouns.tsv's header names the run's space: renamed, it is the
            # tensor file whose header no longer matches
            with open(path, encoding="utf-8") as handle:
                header = handle.readline().rstrip("\n").split("\t")
            if (len(header) == 3 and header[0] == "#space" and header[1]
                    and header[2] in ("plain", "structured")
                    and header != ["#space", "toy", "structured"]):
                named = os.path.join(sem, "verbs", "chase.tsv")
        report = os.path.join(directory, "report.tsv")
        common = ["--lexicon", str(toy_world / "lexicon.tsv"),
                  "--basis", str(toy_world / "basis.txt"), "--semantics-dir", sem]
        for argv in (["sim", "dogs chase cats", "cats chase dogs", *common],
                     ["eval", "--dataset", str(toy_world / "dataset.tsv"),
                      "--model", "categorical", "--out", report, *common]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 0:
                continue
            message = err.getvalue()
            assert code == 1 and out.getvalue() == ""
            assert message.count("\n") == 1 and "Traceback" not in message
            assert message.startswith(f"gramsem: {named}:")
            assert not os.path.exists(report)


DATASET_FAULTS = {
    # case: (dataset text, message after the path)
    "empty": ("# no pairs\n", "empty dataset"),
    "unrated": ("p1\tdogs chase cats\tcats chase dogs\n",
                "every pair needs at least one gold rating"),
    "conflicting": ("p1\tdogs chase cats\tcats chase dogs\t6\tHIGH\n"
                    "p1\tdogs chase cats\tbankers chase stock\t2\tLOW\n",
                    "conflicting rows for pair id 'p1'"),
    "untagged": ("p1\tdogs chase cats\tcats chase dogs\t6\tHIGH\n"
                 "p2\tdogs chase cats\tbankers chase stock\t2\n",
                 "every pair needs a HIGH/LOW tag"),
    "one pair": ("p1\tdogs chase cats\tcats chase dogs\t6\tHIGH\n",
                 "need at least two observations"),
    "one tag class": ("p1\tdogs chase cats\tcats chase dogs\t6\tHIGH\n"
                      "p2\tdogs chase cats\tbankers chase stock\t2\tHIGH\n",
                      "need at least one pair in each tag class"),
}


@pytest.mark.parametrize("case", sorted(DATASET_FAULTS))
def test_dataset_fault_names_the_dataset(toy_world, capsys, case):
    text, message = DATASET_FAULTS[case]
    dataset = toy_world / "dataset.tsv"
    dataset.write_text(text, encoding="utf-8")
    report_path = toy_world / "report.tsv"
    code, out, err = run(
        capsys, "eval", "--dataset", str(dataset), "--lexicon", str(toy_world / "lexicon.tsv"),
        "--basis", str(toy_world / "basis.txt"), "--semantics-dir", str(toy_world / "sem"),
        "--out", str(report_path),
    )
    assert code == 1 and out == ""
    assert err == f"gramsem: {dataset}: {message}\n"
    assert not report_path.exists()


@pytest.mark.parametrize("case", sorted(DATASET_FAULTS))
def test_dataset_fault_is_found_before_any_model_scores(toy_world, capsys, case):
    # verb_baseline's correlation is undefined on the toy pairs: the dataset's
    # own fault must still be the one line reported
    text, message = DATASET_FAULTS[case]
    dataset = toy_world / "dataset.tsv"
    dataset.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "eval", "--dataset", str(dataset), "--lexicon", str(toy_world / "lexicon.tsv"),
        "--basis", str(toy_world / "basis.txt"), "--semantics-dir", str(toy_world / "sem"),
        "--model", "verb_baseline",
    )
    assert (code, out, err) == (1, "", f"gramsem: {dataset}: {message}\n")


@pytest.fixture
def huge_world(tmp_path):
    """Weights whose squares overflow: dog and cat point in opposite
    directions, and chase times two nouns overflows a composed weight."""
    sem = tmp_path / "sem"
    (sem / "verbs").mkdir(parents=True)
    (tmp_path / "basis.txt").write_text("a\nb\n", encoding="utf-8")
    (sem / "nouns.tsv").write_text(
        "#space\tN\tplain\ncat\ta\t-1e+200\ndog\ta\t1e+200\nfox\ta\t1.0\nfox\tb\t2.0\n",
        encoding="utf-8",
    )
    (sem / "verbs" / "chase.tsv").write_text(
        "#space\tN\tplain\n#order\t2\na\ta\t1e+200\n", encoding="utf-8"
    )
    (tmp_path / "lexicon.tsv").write_text(
        "cat\tn\ndog\tn\nfox\tn\nchase\tn^r s n^l\n", encoding="utf-8"
    )
    (tmp_path / "dataset.tsv").write_text(
        "p1\tdog chase dog\tcat chase dog\t6\tHIGH\n"
        "p2\tdog chase fox\tfox chase dog\t2\tLOW\n",
        encoding="utf-8",
    )
    return tmp_path, ("--lexicon", str(tmp_path / "lexicon.tsv"),
                      "--basis", str(tmp_path / "basis.txt"), "--semantics-dir", str(sem))


def test_sim_rescales_weights_whose_squares_overflow(huge_world, capsys):
    _, common = huge_world
    assert run(capsys, "sim", "dog", "cat", *common)[:2] == (0, "-1.000000\n")
    assert run(capsys, "sim", "dog", "dog", *common)[:2] == (0, "1.000000\n")


def test_eval_overflow_is_not_blamed_on_the_dataset(huge_world, capsys):
    world, common = huge_world
    dataset = world / "dataset.tsv"
    code, out, err = run(capsys, "eval", "--dataset", str(dataset), "--model", "categorical",
                         "--out", str(world / "report.tsv"), *common)
    assert code == 1 and out == ""
    assert err == (
        "gramsem: categorical: 'dog chase dog' / 'cat chase dog': non-finite weight inf at (0, 0)\n"
    )
    assert str(dataset) not in err and not (world / "report.tsv").exists()


def test_sim_overflow_names_the_model_and_the_sentences(huge_world, capsys):
    _, common = huge_world
    code, out, err = run(capsys, "sim", "dog chase fox", "dog chase dog", *common)
    assert code == 1 and out == ""
    assert err == (
        "gramsem: categorical: 'dog chase fox' / 'dog chase dog': non-finite weight inf at (0, 0)\n"
    )


def test_missing_output_directory_is_named(tiny_world, capsys):
    missing = tiny_world / "missing"
    code, _, err = run(
        capsys,
        "build-nouns",
        "--corpus", str(tiny_world / "corpus.txt"),
        "--basis", str(tiny_world / "basis.txt"),
        "--out", str(missing / "nouns.tsv"),
    )
    assert code == 1 and err == f"gramsem: output directory {missing} does not exist\n"
    assert not missing.exists()
    assert [p for p in tiny_world.iterdir() if p.suffix == ".part"] == []


def test_eval_prints_nothing_before_out_is_written(benchmark_files, tmp_path, capsys):
    # --out is written before the table and the summary are printed
    _, paths = benchmark_files
    missing = tmp_path / "missing"
    code, out, err = run(
        capsys, "eval", "--dataset", paths["dataset"], "--lexicon", paths["lexicon"],
        "--basis", paths["basis"], "--semantics-dir", paths["semantics"],
        "--out", str(missing / "r.tsv"),
    )
    assert (code, out, err) == (1, "", f"gramsem: output directory {missing} does not exist\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, word", [("build-verb", "show"), ("build-adj", "big")])
def test_build_tensor_refuses_a_missing_out_directory(sample_world, capsys, command, word):
    # only the default <dir>/verbs/ or <dir>/adjectives/ folder is made
    (sample_world / "adjectives.tsv").write_text("big\ttable\n", encoding="utf-8")
    records = "triples.tsv" if command == "build-verb" else "adjectives.tsv"
    before = sorted(sample_world.rglob("*"))
    missing = sample_world / "missing"
    code, out, err = run(
        capsys, command, word, "--triples", str(sample_world / records),
        "--basis", str(sample_world / "basis.txt"), "--semantics-dir", str(sample_world / "sem"),
        "--out", str(missing / "x.tsv"),
    )
    assert (code, out, err) == (1, "", f"gramsem: output directory {missing} does not exist\n")
    assert sorted(sample_world.rglob("*")) == before


@pytest.mark.parametrize("command", ["build-verb", "build-adj", "sim", "eval"])
def test_a_missing_nouns_file_is_named(benchmark_files, tmp_path, capsys, command):
    _, paths = benchmark_files
    nouns = tmp_path / "nosuchdir" / "nouns.tsv"
    common = ("--basis", paths["basis"], "--semantics-dir", str(nouns.parent))
    argv = {
        "build-verb": ("build-verb", "charge", "--triples", paths["triples"], *common),
        "build-adj": ("build-adj", "charge", "--triples", paths["triples"], *common),
        "sim": ("sim", "knight charge enemy", "knight storm enemy",
                "--lexicon", paths["lexicon"], *common),
        "eval": ("eval", "--dataset", paths["dataset"], "--lexicon", paths["lexicon"], *common),
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"gramsem: {nouns} not found; run build-nouns first\n")
    assert list(tmp_path.iterdir()) == []


# --- degenerate models and zero vectors are reported, not fatal ----------------


@pytest.fixture
def disjoint_world(tmp_path, capsys):
    """Seven words whose subjects, verbs and objects share no context word, so
    ``multiply`` scores every pair 0 and ``verb_baseline`` compares the same
    two verbs in every pair: both correlations are undefined."""
    (tmp_path / "corpus.txt").write_text(
        "dog a1 a2\ncat a1\nchase b1 b2\nbite b2\nball c1\nbone c1 c2\ntoy c2\n",
        encoding="utf-8",
    )
    (tmp_path / "basis.txt").write_text("a1\na2\nb1\nb2\nc1\nc2\n", encoding="utf-8")
    (tmp_path / "triples.tsv").write_text(
        "dog\tchase\tball\ncat\tchase\tbone\ndog\tbite\tbone\ncat\tbite\ttoy\n", encoding="utf-8"
    )
    (tmp_path / "lexicon.tsv").write_text(
        "".join(f"{noun}\tn\n" for noun in ("dog", "cat", "ball", "bone", "toy"))
        + "chase\tn^r s n^l\nbite\tn^r s n^l\n",
        encoding="utf-8",
    )
    (tmp_path / "dataset.tsv").write_text(
        "p1\tdog chase ball\tdog bite ball\t6\tHIGH\n"
        "p2\tcat chase bone\tcat bite bone\t2\tLOW\n"
        "p3\tdog chase bone\tdog bite bone\t5\tHIGH\n"
        "p4\tcat chase toy\tcat bite toy\t1\tLOW\n",
        encoding="utf-8",
    )
    sem = tmp_path / "sem"
    sem.mkdir()
    common = ("--basis", str(tmp_path / "basis.txt"), "--semantics-dir", str(sem))
    assert run(capsys, "build-nouns", "--corpus", str(tmp_path / "corpus.txt"),
               "--basis", str(tmp_path / "basis.txt"), "--window", "2",
               "--weighting", "raw", "--out", str(sem / "nouns.tsv"))[0] == 0
    for verb in ("chase", "bite"):
        assert run(capsys, "build-verb", verb, "--triples", str(tmp_path / "triples.tsv"),
                   *common)[0] == 0
    return tmp_path, ("--dataset", str(tmp_path / "dataset.tsv"),
                      "--lexicon", str(tmp_path / "lexicon.tsv"), *common)


def test_eval_leaves_out_degenerate_models(disjoint_world, capsys):
    world, args = disjoint_world
    report_path = world / "report.tsv"
    code, out, err = run(capsys, "eval", *args, "--out", str(report_path))
    assert code == 0
    assert "gramsem: multiply: correlation undefined on constant input\n" in err
    assert "gramsem: verb_baseline: correlation undefined on constant input\n" in err
    fields = summary_fields(err)
    assert fields["degenerate"] == "multiply,verb_baseline"
    assert fields["models"] == "5" and fields["scored"] == "3"
    table_models = [line.split()[0] for line in out.splitlines()[1:]]
    assert table_models == ["categorical", "add", "weighted_add"]
    rows = report_path.read_text(encoding="utf-8").splitlines()
    assert [row.split("\t")[0] for row in rows] == ["model", *table_models]


def test_eval_fails_only_when_no_model_scored(disjoint_world, capsys):
    world, args = disjoint_world
    report_path = world / "report.tsv"
    code, out, err = run(capsys, "eval", *args, "--model", "multiply", "--out", str(report_path))
    assert code == 1 and out == ""
    assert err.startswith("gramsem: multiply: correlation undefined on constant input\n")
    assert summary_fields(err) == {"models": "1", "scored": "0", "degenerate": "multiply"}
    assert not report_path.exists()
    assert [p for p in world.iterdir() if p.suffix == ".part"] == []


def test_build_nouns_counts_zero_vectors(tmp_path, capsys):
    # 'common' occurs in every document, so its idf is 0: dog, cat and naps,
    # which see no other basis word, get all-zero vectors and write no row
    (tmp_path / "corpus.txt").write_text(
        "dog common\ncat common\nnaps common bird\n", encoding="utf-8"
    )
    (tmp_path / "basis.txt").write_text("naps\ncommon\n", encoding="utf-8")
    out_path = tmp_path / "nouns.tsv"
    code, _, err = run(capsys, "build-nouns", "--corpus", str(tmp_path / "corpus.txt"),
                       "--basis", str(tmp_path / "basis.txt"), "--out", str(out_path))
    assert code == 0
    fields = summary_fields(err)
    assert fields["targets"] == "5" and fields["zero_vectors"] == "3"
    assert list(fields) == ["documents", "targets", "zero_vectors", "written", "hash_words"]
    space = read_basis(tmp_path / "basis.txt", name="N")
    assert sorted(load_vectors(out_path, space)) == ["bird", "common"]
    # a target that never sees a basis word has no counts at all: it counts too
    (tmp_path / "corpus.txt").write_text("dog common\nnaps common bird far\n", encoding="utf-8")
    code, _, err = run(capsys, "build-nouns", "--corpus", str(tmp_path / "corpus.txt"),
                       "--basis", str(tmp_path / "basis.txt"), "--out", str(out_path),
                       "--weighting", "raw", "--window", "1")
    assert code == 0
    assert summary_fields(err)["zero_vectors"] == "1"
    assert "far" not in load_vectors(out_path, space)


def test_build_nouns_leaves_out_words_starting_with_hash(tmp_path, capsys):
    # a '#tag' row in nouns.tsv would read back as a comment: the word would
    # vanish and later commands would call it out of vocabulary
    (tmp_path / "corpus.txt").write_text("#tag cat dog\n", encoding="utf-8")
    (tmp_path / "basis.txt").write_text("cat\ndog\n", encoding="utf-8")
    out_path = tmp_path / "nouns.tsv"
    code, _, err = run(capsys, "build-nouns", "--corpus", str(tmp_path / "corpus.txt"),
                       "--basis", str(tmp_path / "basis.txt"), "--out", str(out_path),
                       "--weighting", "raw")
    assert code == 0
    assert summary_fields(err)["targets"] == "2"
    assert summary_fields(err)["hash_words"] == "1"
    rows = out_path.read_text(encoding="utf-8").splitlines()[1:]
    assert rows and not [row for row in rows if row.startswith("#")]
    assert sorted(load_vectors(out_path, read_basis(tmp_path / "basis.txt", name="N"))) == [
        "cat", "dog",
    ]


def test_build_nouns_memory_does_not_grow_with_the_corpus(tmp_path, capsys):
    # Over one 200-word vocabulary the counts are the same size for 1,000 and
    # 20,000 documents: the corpus is counted as it is read and each word
    # weighed as its rows are written, so the traced peak stays put.
    rng = random.Random(5)
    vocabulary = [f"w{k}" for k in range(200)]
    basis = tmp_path / "basis.txt"
    basis.write_text("".join(f"{word}\n" for word in vocabulary[:50]), encoding="utf-8")
    peaks = []
    for n in (1000, 20000):
        corpus = tmp_path / f"corpus{n}.txt"
        with open(corpus, "w", encoding="utf-8") as handle:
            for _ in range(n):
                handle.write(" ".join(rng.choices(vocabulary, k=10)) + "\n")
        tracemalloc.start()
        try:
            code = main(["build-nouns", "--corpus", str(corpus), "--basis", str(basis),
                         "--out", str(tmp_path / f"nouns{n}.tsv")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        assert summary_fields(capsys.readouterr().err)["documents"] == str(n)
    assert peaks[1] - peaks[0] <= 0.5 * 2**20, peaks


READER_FAULTS = {
    # case: (input file, row appended to it, subcommand that reads it)
    "rating not a number": ("dataset", "bad\tknight charge enemy\tknight storm enemy\tx\tHIGH", "eval"),
    "rating out of range": ("dataset", "bad\tknight charge enemy\tknight storm enemy\t9\tHIGH", "eval"),
    "unknown tag": ("dataset", "bad\tknight charge enemy\tknight storm enemy\t5\tMID", "eval"),
    "malformed type": ("lexicon", "foe\tn^q", "sim"),
    "empty subject": ("triples", "\tcharge\tenemy", "build-verb"),
    "indirect object without object": ("triples", "knight\tcharge\t\tenemy", "build-verb"),
}


@pytest.mark.parametrize("case", sorted(READER_FAULTS))
def test_malformed_input_row_names_path_and_line(benchmark_files, tmp_path, capsys, case):
    _, paths = benchmark_files
    key, row, command = READER_FAULTS[case]
    path = tmp_path / os.path.basename(paths[key])
    with open(paths[key], encoding="utf-8") as handle:
        text = handle.read() + row + "\n"
    path.write_text(text, encoding="utf-8")
    lineno = len(text.splitlines())
    files = {**paths, key: str(path)}
    common = ("--basis", files["basis"], "--semantics-dir", files["semantics"])
    if command == "eval":
        argv = ("eval", "--dataset", files["dataset"], "--lexicon", files["lexicon"], *common)
    elif command == "sim":
        argv = ("sim", "knight charge enemy", "knight storm enemy", "--lexicon", files["lexicon"],
                *common)
    else:
        argv = ("build-verb", "charge", "--triples", files["triples"], *common,
                "--out", str(tmp_path / "charge.tsv"))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"gramsem: {path}:{lineno}: ")


RECORD_WORDS = st.sampled_from(["knight", "enemy", "x", "charge"])


def malformed_line(kind: str, fields: list[str]):
    """A strategy for a malformed version of a valid record line of ``kind``,
    split into ``fields``; a line with a byte that is not UTF-8 is bytes."""
    widths = {"triples": (2, 4), "adjectives": (2, 2), "dataset": (3, 5)}[kind]
    count = st.one_of(st.integers(1, widths[0] - 1), st.integers(widths[1] + 1, widths[1] + 3))
    faults = [count.flatmap(lambda n: st.lists(RECORD_WORDS, min_size=n, max_size=n))]
    if kind == "triples":
        faults += [st.just(["", *fields[1:]]), st.just([*fields[:2], "", fields[2]])]
    elif kind == "adjectives":
        faults += [st.just(["", fields[1]]), st.just([fields[0], ""])]
    else:
        out_of_range = st.floats().filter(lambda r: not 1.0 <= r <= 7.0).map(repr)
        ratings = st.one_of(out_of_range, st.sampled_from(["x", "high", "1,5", "7..0"]))
        tags = st.text("ABCDEFGHILMNOW", min_size=1, max_size=5).filter(
            lambda tag: tag not in ("HIGH", "LOW")
        )
        faults += [ratings.map(lambda r: [*fields[:3], r, fields[4]]),
                   tags.map(lambda tag: [*fields[:4], tag])]
    text = st.one_of(*faults).map("\t".join)
    line = "\t".join(fields).encode("utf-8")
    undecodable = st.tuples(st.integers(0, len(line)), st.sampled_from([b"\xff", b"\x80", b"\xc3("]))
    return st.one_of(text, undecodable.map(lambda cut: line[:cut[0]] + cut[1] + line[cut[0]:]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_record_line_names_path_and_line(benchmark_files, data):
    # one shared reader serves triples, adjective records and datasets
    _, paths = benchmark_files
    kind = data.draw(st.sampled_from(["triples", "adjectives", "dataset"]))
    if kind == "adjectives":
        text = "".join(f"fierce\t{noun}\n" for noun in ("knight", "army", "mob", "enemy"))
    else:
        with open(paths[kind], encoding="utf-8") as handle:
            text = handle.read()
    lines = text.splitlines()
    lineno = data.draw(st.integers(1, len(lines)))
    bad = data.draw(malformed_line(kind, lines[lineno - 1].split("\t")))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, f"{kind}.tsv")
        out_path = os.path.join(directory, "out.tsv")
        encoded = [line.encode("utf-8") for line in lines]
        encoded[lineno - 1] = bad if isinstance(bad, bytes) else bad.encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(b"".join(line + b"\n" for line in encoded))
        common = ("--basis", paths["basis"], "--semantics-dir", paths["semantics"],
                  "--out", out_path)
        if kind == "dataset":
            argv = ["eval", "--dataset", path, "--lexicon", paths["lexicon"], *common]
        elif kind == "triples":
            argv = ["build-verb", "charge", "--triples", path, *common]
        else:
            argv = ["build-adj", "fierce", "--triples", path, *common]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 1 and out.getvalue() == ""
        message = err.getvalue()
        assert message.count("\n") == 1 and "Traceback" not in message
        assert message.startswith(f"gramsem: {path}:{lineno}: ")
        assert os.listdir(directory) == [f"{kind}.tsv"]


# Text a mutation puts into a line: a field, a type, a separator or a word.
MUTATION_TEXT = st.one_of(
    FIELD_TEXT,
    st.sampled_from(["n", "s", "n^r s n^l", "n^l", "n^rr", "x^", "#", "\t", " ", "knight"]),
)


def mutated(draw, lines: list[bytes]) -> bytes:
    """``lines`` with one line mutated: a byte cut, text inserted, the line
    replaced, repeated or dropped, or a byte that is not UTF-8 inserted."""
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    at = draw(st.integers(0, len(line)))
    fault = draw(st.sampled_from(["cut", "insert", "replace", "repeat", "drop", "not UTF-8"]))
    if fault == "cut":
        lines[k] = line[:at] + line[at + 1:]
    elif fault == "insert":
        lines[k] = line[:at] + draw(MUTATION_TEXT).encode("utf-8") + line[at:]
    elif fault == "replace":
        lines[k] = draw(MUTATION_TEXT).encode("utf-8")
    elif fault == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif fault == "drop":
        del lines[k]
    else:
        lines[k] = line[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3("])) + line[at:]
    return b"".join(line + b"\n" for line in lines)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_mutated_lexicon_basis_or_corpus_ends_cleanly(benchmark_files, data):
    # The README session's lexicon and basis under sim, its corpus under
    # build-nouns: each run succeeds, or fails with one line and writes nothing.
    _, paths = benchmark_files
    kind = data.draw(st.sampled_from(["lexicon", "basis", "corpus"]))
    with open(paths[kind], "rb") as handle:
        text = mutated(data.draw, handle.read().splitlines())
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, os.path.basename(paths[kind]))
        with open(path, "wb") as handle:
            handle.write(text)
        files = {**paths, kind: path}
        if kind == "corpus":
            argv = ["build-nouns", "--corpus", path, "--basis", files["basis"], "--weighting",
                    "raw", "--window", "2", "--out", os.path.join(directory, "nouns.tsv")]
        else:
            argv = ["sim", "knight charge enemy", "knight storm enemy", "--lexicon",
                    files["lexicon"], "--basis", files["basis"],
                    "--semantics-dir", paths["semantics"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        message = err.getvalue()
        assert "Traceback" not in message
        if code == 0:
            return
        assert code == 1 and out.getvalue() == ""
        assert message.count("\n") == 1 and message.startswith("gramsem: ")
        assert os.listdir(directory) == [os.path.basename(path)]


def test_duplicate_basis_label_names_both_lines(benchmark_files, tmp_path, capsys):
    _, paths = benchmark_files
    labels = open(paths["basis"], encoding="utf-8").read().splitlines()
    basis = tmp_path / "basis.txt"
    basis.write_text("\n".join([*labels, "# a comment", labels[1]]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--dataset", paths["dataset"], "--lexicon",
                         paths["lexicon"], "--basis", str(basis), "--semantics-dir",
                         paths["semantics"])
    assert code == 1 and out == ""
    assert err == (f"gramsem: {basis}:{len(labels) + 2}: duplicate basis label"
                   f" {labels[1]!r}, first on line 2\n")


# case: (input file, line given a byte that is not UTF-8, subcommand that reads it)
UNDECODABLE = {
    "basis": ("basis", 3, "eval"),
    "corpus": ("corpus", 2, "build-nouns"),
    "triples": ("triples", 4, "build-verb"),
    "adjective records": ("adjectives", 2, "build-adj"),
    "lexicon": ("lexicon", 5, "sim"),
    "dataset": ("dataset", 7, "eval"),
    "nouns.tsv header": ("sem/nouns.tsv", 1, "sim"),
    "nouns.tsv row": ("sem/nouns.tsv", -1, "eval"),
    "tensor row": ("sem/verbs/charge.tsv", 3, "sim"),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_input_names_path_and_line(benchmark_files, tmp_path, capsys, case):
    import shutil

    _, paths = benchmark_files
    key, lineno, command = UNDECODABLE[case]
    files = dict(paths, semantics=str(tmp_path / "sem"))
    shutil.copytree(paths["semantics"], files["semantics"])
    files["adjectives"] = str(tmp_path / "adjectives.tsv")
    with open(files["adjectives"], "w", encoding="utf-8") as handle:
        handle.write("fierce\tknight\nfierce\tarmy\nfierce\tmob\n")
    path = tmp_path / (key if key.startswith("sem/") else os.path.basename(files[key]))
    if not path.exists():
        shutil.copyfile(files[key], path)
        files[key] = str(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lineno = lineno if lineno > 0 else len(lines)
    lines[lineno - 1] = lines[lineno - 1][:2] + b"\xff" + lines[lineno - 1][2:]
    path.write_bytes(b"".join(lines))
    common = ("--basis", files["basis"], "--semantics-dir", files["semantics"])
    if command == "eval":
        argv = ("eval", "--dataset", files["dataset"], "--lexicon", files["lexicon"], *common)
    elif command == "sim":
        argv = ("sim", "knight charge enemy", "knight storm enemy", "--lexicon", files["lexicon"],
                *common)
    elif command == "build-nouns":
        argv = ("build-nouns", "--corpus", files["corpus"], "--basis", files["basis"],
                "--out", str(tmp_path / "out.tsv"))
    elif command == "build-verb":
        argv = ("build-verb", "charge", "--triples", files["triples"], *common,
                "--out", str(tmp_path / "out.tsv"))
    else:
        argv = ("build-adj", "fierce", "--triples", files["adjectives"], *common,
                "--out", str(tmp_path / "out.tsv"))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"gramsem: {path}:{lineno}: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "out.tsv").exists()



# case: (nouns.tsv header, basis lines, file named in the error, its line, message)
BASIS_FAULTS = {
    "structured label without rel-word form": (
        "#space\tN\tstructured", ["subj-dog", "foo"], "basis.txt", 2,
        "structured label must have the form 'rel-word': 'foo'",
    ),
    "unknown basis kind": (
        "#space\tN\tfancy", ["dog", "cat"], "sem/nouns.tsv", 1, "unknown basis kind: 'fancy'",
    ),
    "empty space name": (
        "#space\t\tplain", ["dog", "cat"], "sem/nouns.tsv", 1, "space name must be non-empty",
    ),
}


@pytest.mark.parametrize("case", sorted(BASIS_FAULTS))
def test_basis_fault_names_path_and_line(tmp_path, capsys, case):
    header, labels, named, lineno, message = BASIS_FAULTS[case]
    (tmp_path / "sem").mkdir()
    (tmp_path / "sem" / "nouns.tsv").write_text(header + "\n", encoding="utf-8")
    (tmp_path / "basis.txt").write_text("".join(f"{label}\n" for label in labels), encoding="utf-8")
    (tmp_path / "lexicon.tsv").write_text("dog\tn\n", encoding="utf-8")
    code, out, err = run(capsys, "sim", "dog", "dog", "--lexicon", str(tmp_path / "lexicon.tsv"),
                         "--basis", str(tmp_path / "basis.txt"),
                         "--semantics-dir", str(tmp_path / "sem"))
    assert code == 1 and out == ""
    assert err == f"gramsem: {tmp_path / named}:{lineno}: {message}\n"
