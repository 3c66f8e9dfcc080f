"""Start-up guard: the command-line tool never loads numpy.

Every subcommand runs in its own process, so an import that no command path
uses is paid for once per process.  numpy is needed only by ``to_dense``.
"""

import json
import os
import subprocess
import sys

import pytest

import gramsem
from gramsem.benchmark import two_sense_benchmark

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gramsem.__file__)))

SCRIPT = """
import json
import sys
from gramsem.cli import main

for argv in json.loads(sys.argv[1]):
    code = main(argv)
    assert code == 0, (argv, code)
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
print("numpy modules:", loaded)
assert "numpy" not in sys.modules
"""


def test_cli_commands_never_import_numpy(tmp_path):
    paths = two_sense_benchmark().write_files(tmp_path)
    sem = str(tmp_path / "sem")
    os.makedirs(sem)
    common = ["--basis", paths["basis"], "--semantics-dir", sem]
    lexicon = ["--lexicon", paths["lexicon"]]
    commands = [
        ["build-nouns", "--corpus", paths["corpus"], "--basis", paths["basis"],
         "--window", "2", "--out", os.path.join(sem, "nouns.tsv")],
        *[["build-verb", verb, "--triples", paths["triples"], *common]
          for verb in ("charge", "storm", "bill")],
        ["eval", "--dataset", paths["dataset"], *lexicon, *common,
         "--out", str(tmp_path / "report.tsv")],
        ["sim", "knight charge enemy", "knight storm enemy", *lexicon, *common],
    ]
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "numpy modules: []" in result.stdout
    assert (tmp_path / "report.tsv").exists()


def test_to_dense_names_the_extra_when_numpy_is_missing(monkeypatch):
    from gramsem.vectorspace import BasisRegistry, SemTensor, WeightedVector

    monkeypatch.setitem(sys.modules, "numpy", None)  # makes `import numpy` raise ImportError
    space = BasisRegistry("x", ("a", "b"))
    for value in (SemTensor(space, 2, {(0, 1): 1.0}), WeightedVector(space, {0: 1.0})):
        with pytest.raises(ImportError, match=r"gramsem\[test\]"):
            value.to_dense()
