"""Per-layer metrics from the spans that ``tracing.py`` records.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over its spans.  ``cli.self_s`` is the wall
time of the traced processes that no span covers.  So, stage by stage, the
layers' self times plus the CLI's own time add up to the stage's wall time.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict

from tracing import LAYERS

MODELS = ("categorical", "add", "multiply", "weighted_add", "verb_baseline")
FOLDS = ("vectorspace.add", "vectorspace.pointwise_mul", "vectorspace.scale")

# name -> unit, in the order they are printed
UNITS = {
    "cli.processes": "count",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "corpus.read_s": "s",
    "corpus.count_s": "s",
    "corpus.count_tokens": "count",
    "corpus.weighting_s": "s",
    "corpus.build_tensor_s": "s",
    "corpus.build_tensor_occurrences": "count",
    "corpus.build_tensor_entries": "count",
    "corpus.build_tensor_products": "count",
    "corpus.build_tensor_entries_copied": "count",
    "corpus.build_tensor_useful_ratio": "ratio",
    "vectorspace.load_vectors_s": "s",
    "vectorspace.load_vectors_calls": "count",
    "vectorspace.load_vectors_rows": "count",
    "vectorspace.load_tensor_s": "s",
    "vectorspace.load_tensor_entries": "count",
    "vectorspace.save_s": "s",
    "vectorspace.saved_bytes": "bytes",
    "vectorspace.cosine_s": "s",
    "vectorspace.cosine_calls": "count",
    "vectorspace.cosine_operand_entries": "count",
    "vectorspace.fold_s": "s",
    "pregroup.load_lexicon_s": "s",
    "pregroup.reduce_s": "s",
    "pregroup.reduce_calls": "count",
    "pregroup.reductions_per_sentence": "ratio",
    "composition.load_semantics_s": "s",
    "composition.compose_sentence_s": "s",
    "composition.compose_sentence_calls": "count",
    "composition.compose_reuse_ratio": "ratio",
    "composition.compose_adjective_s": "s",
    "composition.align_s": "s",
    "composition.padded_entries": "count",
    "evaluation.read_dataset_s": "s",
    "evaluation.stats_s": "s",
    "evaluation.pairs_scored": "count",
    **{f"evaluation.{model}_s": "s" for model in MODELS},
    "gramsem.src_lines": "lines",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# metric -> span names whose durations it sums
DURATIONS = {
    "corpus.read_s": ("corpus.read_corpus", "corpus.read_triples",
                      "corpus.read_adjective_pairs", "corpus.read_basis"),
    "corpus.count_s": ("corpus.count_cooccurrence",),
    "corpus.weighting_s": ("corpus.tfidf", "corpus.raw_vectors"),
    "corpus.build_tensor_s": ("corpus.build_verb_tensor", "corpus.build_ditransitive_tensor",
                              "corpus.build_intransitive_tensor", "corpus.build_adjective_tensor"),
    "vectorspace.load_vectors_s": ("vectorspace.load_vectors",),
    "vectorspace.load_tensor_s": ("vectorspace.load_tensor",),
    "vectorspace.save_s": ("vectorspace.save_vectors", "vectorspace.save_tensor"),
    "vectorspace.cosine_s": ("vectorspace.cosine",),
    "pregroup.load_lexicon_s": ("pregroup.load_lexicon",),
    "pregroup.reduce_s": ("pregroup.reduce",),
    "composition.load_semantics_s": ("composition.load_semantics",),
    "composition.compose_sentence_s": ("composition.compose_sentence",),
    "composition.compose_adjective_s": ("composition.compose_adjective",),
    "composition.align_s": ("composition.align_orders",),
    "evaluation.read_dataset_s": ("evaluation.read_dataset",),
    "evaluation.stats_s": ("evaluation.spearman_rho", "evaluation.high_low_means"),
}
CALLS = {
    "vectorspace.load_vectors_calls": "vectorspace.load_vectors",
    "vectorspace.cosine_calls": "vectorspace.cosine",
    "pregroup.reduce_calls": "pregroup.reduce",
    "composition.compose_sentence_calls": "composition.compose_sentence",
    "evaluation.pairs_scored": "evaluation.model_similarity",
}
# metric -> (span names, count key) whose counts it sums
COUNTS = {
    "corpus.count_tokens": (("corpus.count_cooccurrence",), "tokens"),
    "corpus.build_tensor_occurrences": (DURATIONS["corpus.build_tensor_s"], "occurrences"),
    "corpus.build_tensor_entries": (DURATIONS["corpus.build_tensor_s"], "entries"),
    "corpus.build_tensor_products": (DURATIONS["corpus.build_tensor_s"], "products"),
    "vectorspace.load_vectors_rows": (("vectorspace.load_vectors",), "rows"),
    "vectorspace.load_tensor_entries": (("vectorspace.load_tensor",), "entries"),
    "vectorspace.saved_bytes": (DURATIONS["vectorspace.save_s"], "bytes"),
    "vectorspace.cosine_operand_entries": (("vectorspace.cosine",), "operands"),
    "composition.padded_entries": (("composition.align_orders",), "padded_entries"),
}


def process_spans(path: str, wall: float):
    """Per-span self times of one traced process, and its time no span covers."""
    with open(path, encoding="utf-8") as handle:
        spans = json.load(handle)
    durations = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    uncovered = wall
    for k, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += durations[k]
        else:
            uncovered -= durations[k]
    selves = [d - c for d, c in zip(durations, covered)]
    return spans, durations, selves, uncovered


def round_metrics(processes) -> dict:
    """Per-layer metrics of one traced round, plus its per-stage accounting."""
    totals: dict[str, float] = defaultdict(float)
    stages: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    builds = []
    distinct_sentences = 0
    for stage, args, wall, path in processes:
        spans, durations, selves, uncovered = process_spans(path, wall)
        totals["cli.processes"] += 1
        totals["cli.self_s"] += uncovered
        totals["trace.spans"] += len(spans)
        stages[stage]["wall_s"] += wall
        stages[stage]["cli"] += uncovered
        sentences = set()
        for k, (name, _, _, parent, counts) in enumerate(spans):
            layer = name.split(".")[0]
            totals[f"{layer}.self_s"] += selves[k]
            stages[stage][layer] += selves[k]
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name in FOLDS and parent_name.startswith("evaluation."):
                totals["vectorspace.fold_s"] += durations[k]
            if name == "vectorspace.tensor_add" and parent_name.startswith("corpus.build_"):
                totals["corpus.build_tensor_entries_copied"] += counts["passed"]
            if name == "evaluation.model_similarity" and counts:
                totals[f"evaluation.{counts['model']}_s"] += durations[k]
            if name == "composition.compose_sentence" and counts:
                sentences.add(counts["words"])
            if name.startswith("corpus.build_") and counts:
                builds.append({"word": args[1], **counts, "seconds": durations[k]})
        distinct_sentences += len(sentences)
        for metric, names in DURATIONS.items():
            totals[metric] += sum(d for (n, *_), d in zip(spans, durations) if n in names)
        for metric, name in CALLS.items():
            totals[metric] += sum(1 for n, *_ in spans if n == name)
        for metric, (names, key) in COUNTS.items():
            totals[metric] += sum(c[key] for n, _, _, _, c in spans if n in names and c)
    copied = totals["corpus.build_tensor_entries_copied"]
    work = totals["corpus.build_tensor_products"] + copied
    totals["corpus.build_tensor_useful_ratio"] = (
        totals["corpus.build_tensor_entries"] / work if work else 0.0
    )
    calls = totals["composition.compose_sentence_calls"]
    totals["pregroup.reductions_per_sentence"] = totals["pregroup.reduce_calls"] / calls if calls else 0.0
    totals["composition.compose_reuse_ratio"] = distinct_sentences / calls if calls else 0.0
    return {"metrics": dict(totals), "stages": {s: dict(v) for s, v in stages.items()},
            "builds": builds}


def src_lines(src: str) -> int:
    total = 0
    for directory, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def summarise(traced: list[dict], plain: list[dict], src: str) -> dict[str, tuple[float, str]]:
    """Median of each per-layer metric over the traced rounds, with the tracing overhead."""
    median = statistics.median
    values = {
        name: median(r["layers"]["metrics"].get(name, 0.0) for r in traced) for name in UNITS
    }
    values["gramsem.src_lines"] = src_lines(src)
    values["trace.overhead_s"] = median(r["pipeline_s"] for r in traced) - median(
        r["pipeline_s"] for r in plain
    )
    return {name: (values[name], unit) for name, unit in UNITS.items()}


def write_trace(directory: str, workload: str, seed: int, traced: list[dict], metrics) -> None:
    """Keep the last traced round's accounting and per-call builds for reference."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}.json")
    last = traced[-1]["layers"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"stages": last["stages"], "builds": last["builds"],
                   "metrics": {n: v for n, (v, _) in metrics.items()}}, handle, indent=1)
