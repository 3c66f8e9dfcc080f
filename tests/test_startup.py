"""Start-up guard: the command-line tool loads none of numpy, dataclasses or inspect.

Every subcommand runs in its own process, so an import that no command path
uses is paid for once per process.  numpy is needed only by ``to_dense``.
``dataclasses`` (which imports ``inspect``, ``ast``, ``dis`` and
``tokenize``) and the code its decorators generate cost ~25 ms per process,
so the value classes are plain classes over ``gramsem._value.Value``.  A
module the bare interpreter already loads (through ``site`` and ``.pth``
files) costs the commands nothing and is not counted.
"""

import json
import os
import subprocess
import sys

import pytest

import gramsem
from gramsem.benchmark import two_sense_benchmark

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gramsem.__file__)))

WATCHED = {"dataclasses", "inspect", "numpy"}

LOADED = f"""
import json
import sys
print(json.dumps(sorted(set(sys.modules).intersection({sorted(WATCHED)!r}))))
"""

SCRIPT = """
import json
import sys
from gramsem.cli import main

for argv in json.loads(sys.argv[1]):
    code = main(argv)
    assert code == 0, (argv, code)
""" + LOADED


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

    def watched_modules(*argv) -> list[str]:
        result = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    bare = watched_modules("-c", LOADED)
    loaded = watched_modules("-c", SCRIPT, json.dumps(commands))
    assert set(loaded) <= set(bare), (loaded, bare)
    assert (tmp_path / "report.tsv").exists()


def test_to_dense_names_the_extra_when_numpy_is_missing(monkeypatch):
    from gramsem.vectorspace import BasisRegistry, SemTensor, WeightedVector

    monkeypatch.setitem(sys.modules, "numpy", None)  # makes `import numpy` raise ImportError
    space = BasisRegistry("x", ("a", "b"))
    for value in (SemTensor(space, 2, {(0, 1): 1.0}), WeightedVector(space, {0: 1.0})):
        with pytest.raises(ImportError, match=r"gramsem\[test\]"):
            value.to_dense()
