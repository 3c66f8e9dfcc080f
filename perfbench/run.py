"""Benchmark the gramsem CLI pipeline on a seeded world, end to end or per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gs2011-transitive --seed 1 --seconds 36 --trace 0

One round runs the CLI the way a user does, one process per subcommand:
``build-nouns``, ``build-verb``/``build-adj`` once per relational word,
``eval`` over all five models, then the workload's ``sim`` queries.  Whole
rounds are repeated until one more would pass ``--seconds``, and every
timing reported is a median over rounds.  Every round must reproduce the
first round's outputs byte for byte, and after the last one the outputs are
checked against an independent computation (``check.py``).

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced rounds alternate; traced rounds run each CLI process
under ``tracing.py`` and the per-layer metrics come from their spans.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (CLI invocations) and ``metrics``.

The program is run from ``src/`` of the checkout; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread for the checker's numpy; the CLI processes get the same.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import world  # noqa: E402

SETUP_REPEATS = 2
PROCESS_TIMEOUT_S = 120
STAGES = ("build_nouns", "build_tensors", "eval")


class Runner:
    """Starts CLI processes one at a time and records what each cost."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        # Bytecode is cached under the benchmark's own directory, so nothing
        # is written outside the checkout and no run pays for compiling.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = SRC
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def cli(self, args: list[str], trace_to: str | None = None) -> tuple[float, str, int]:
        """Run one subcommand; returns its wall time, standard output and peak RSS in KiB."""
        if trace_to is None:
            command = [sys.executable, os.path.join(HERE, "entry.py"), *args]
        else:
            command = [sys.executable, os.path.join(HERE, "tracing.py"), trace_to, "--", *args]
        out_path = os.path.join(self.directory, "stdout.txt")
        err_path = os.path.join(self.directory, "stderr.txt")
        self.attempted += 1
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            process = subprocess.Popen(command, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                code = process.wait(timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                code = process.wait()
            wall = time.perf_counter() - start
        with open(out_path, encoding="utf-8") as out:
            stdout = out.read()
        with open(err_path, encoding="utf-8") as err:
            stderr = err.read()
        peak = 0
        if trace_to is None and stderr.rstrip().rpartition("\n")[2].startswith("peak_rss_kib\t"):
            peak = int(stderr.rstrip().rpartition("\t")[2])
        if code != 0:
            self.failed += 1
            self.errors.append(f"{args[0]} exited {code}: {stderr.strip()[-300:]}")
        return wall, stdout, peak


def setup(name: str, seed: int, smoke: bool, directory: str, runner: Runner):
    """Write the seeded inputs and cold-start the CLI once; returns (world, paths, seconds)."""
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    made = world.make_world(name, seed, smoke)
    paths = made.write(directory)
    runner.cli(["--help"])
    return made, paths, time.perf_counter() - start


def run_round(made, paths, runner: Runner, directory: str, traced: bool) -> dict:
    """One pass of the pipeline: stage wall times, outputs and, when traced, spans."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    sem = paths["semantics"]
    shutil.rmtree(sem, ignore_errors=True)
    os.makedirs(sem)
    common = ["--basis", paths["basis"], "--semantics-dir", sem]
    steps = [
        ("build_nouns", ["build-nouns", "--corpus", paths["corpus"], "--basis", paths["basis"],
                         "--window", "5", "--weighting", "tfidf", "--out", f"{sem}/nouns.tsv"]),
        *[("build_tensors", ["build-verb", v, "--triples", paths["triples"], *common])
          for v in made.verbs],
        *[("build_tensors", ["build-adj", a, "--triples", paths["adjectives"], *common])
          for a in made.adjectives],
        ("eval", ["eval", "--dataset", paths["dataset"], "--lexicon", paths["lexicon"],
                  *common, "--out", f"{directory}/report.tsv"]),
        *[("sim", ["sim", s1, s2, "--lexicon", paths["lexicon"], *common, "--model", model])
          for s1, s2, model in made.sims],
    ]
    walls = {stage: 0.0 for stage in STAGES}
    sims, stdouts, processes = [], [], []
    peak = 0
    start = time.perf_counter()
    for k, (stage, args) in enumerate(steps):
        spans = os.path.join(directory, f"spans-{k:03d}.json") if traced else None
        wall, stdout, process_peak = runner.cli(args, spans)
        peak = max(peak, process_peak)
        if stage == "sim":
            sims.append(wall)
        else:
            walls[stage] += wall
            pipeline = time.perf_counter() - start
        stdouts.append(stdout)
        processes.append((stage, args, wall, spans))
    result = {
        "pipeline_s": pipeline,
        "walls": walls,
        "sim_walls": sims,
        "stdouts": stdouts,
        "sims": [out for out, (stage, _) in zip(stdouts, steps) if stage == "sim"],
        "report": f"{directory}/report.tsv",
        "peak_rss_kib": peak,
        "semantics_bytes": sum(
            os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(sem) for f in fs
        ),
    }
    if traced:
        result["layers"] = layers.round_metrics(processes)
    return result


def fingerprint(result: dict, sem: str) -> dict[str, str]:
    """Digest of every output of a round, to compare rounds byte for byte."""
    digest = {}
    files = [os.path.join(d, f) for d, _, fs in os.walk(sem) for f in fs] + [result["report"]]
    for path in files:
        with open(path, "rb") as handle:
            digest[os.path.relpath(path, sem)] = hashlib.sha256(handle.read()).hexdigest()
    for k, text in enumerate(result["stdouts"]):
        digest[f"stdout-{k}"] = hashlib.sha256(text.encode()).hexdigest()
    return digest


def end_to_end(setups: list[float], rounds: list[dict]) -> dict[str, tuple[float, str]]:
    median = statistics.median
    return {
        "setup_s": (median(setups), "s"),
        "pipeline_s": (median(r["pipeline_s"] for r in rounds), "s"),
        "build_nouns_s": (median(r["walls"]["build_nouns"] for r in rounds), "s"),
        "build_tensors_s": (median(r["walls"]["build_tensors"] for r in rounds), "s"),
        "eval_s": (median(r["walls"]["eval"] for r in rounds), "s"),
        "sim_s": (median(w for r in rounds for w in r["sim_walls"]), "s"),
        "peak_rss_mb": (median(r["peak_rss_kib"] for r in rounds) * 1024 / 1e6, "MB"),
        "semantics_mb": (rounds[-1]["semantics_bytes"] / 1e6, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(world.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny worlds for the test suite")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gramsem", "cli.py")):
        print(f"perfbench: no gramsem sources under {SRC}", file=sys.stderr)
        return 2
    import check  # numpy and scipy load only once the program is known to be there

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        setup_runner = Runner(run_dir)
        setup_runner.cli(["--help"])  # fills the bytecode cache before anything is timed
        setups = []

        def set_up():
            made, paths, seconds = setup(
                args.workload, args.seed, args.size == "smoke",
                os.path.join(run_dir, "world"), setup_runner,
            )
            setups.append(seconds)
            return made, paths

        for _ in range(1 if args.size == "smoke" else SETUP_REPEATS):
            made, paths = set_up()
        problems: list[str] = []
        runner = Runner(run_dir)
        # Rounds repeat until one more would pass --seconds.  A traced run
        # alternates untraced and traced rounds.
        rounds: list[dict] = []
        reference = None
        start = time.perf_counter()
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            began = time.perf_counter()
            if rounds:  # set-up samples spread over the run, not only at its start
                made, paths = set_up()
            result = run_round(made, paths, runner, os.path.join(run_dir, "round"), traced)
            longest = max(longest, time.perf_counter() - began)
            rounds.append(result)
            digest = fingerprint(result, paths["semantics"])
            if reference is None:
                reference = digest
            elif digest != reference:
                problems.append("a round's outputs differ from the first round's")
            elapsed = time.perf_counter() - start
            # A traced run stops only after a traced round, so it must fit two more.
            if traced == bool(args.trace) and elapsed + longest * (1 + args.trace) > args.seconds:
                break
        # Every round left the same bytes, so the last one's files stand for all.
        problems += check.check_outputs(made, paths["semantics"], result["report"], result["sims"])
        print(f"perfbench: {len(rounds)} rounds in {elapsed:.1f} s, pipeline "
              + " ".join(f"{r['pipeline_s']:.2f}" for r in rounds), file=sys.stderr)
        problems += setup_runner.errors + runner.errors
        plain = [r for r in rounds if "layers" not in r]
        if args.trace:
            traced_rounds = [r for r in rounds if "layers" in r]
            metrics = layers.summarise(traced_rounds, plain, SRC)
            layers.write_trace(
                os.path.join(WORK, "traces"), args.workload, args.seed, traced_rounds, metrics
            )
        else:
            metrics = end_to_end(setups, plain)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g}\t{unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
