"""Run one ``gramsem`` CLI command with spans recorded around each layer.

Usage: ``python3 perfbench/tracing.py SPANS_JSON -- <gramsem arguments>``

Every public module-level function of ``corpus``, ``vectorspace``,
``pregroup``, ``composition`` and ``evaluation`` is wrapped from here, so
nothing under ``src/`` changes.  Where a module imported a function by name
(``corpus`` -> ``tensor_add``/``kronecker``, ``composition`` -> ``reduce``,
``evaluation`` -> ``cosine``/``add``/``compose_sentence`` ...), the name is
replaced in the calling module's namespace too.  ``cli`` itself is not
wrapped: the wall time of a process not covered by any span is the CLI's own
(interpreter start, imports, argument parsing, record filtering).

A span is ``[name, start, end, parent, counts]``; ``parent`` is the index of
the enclosing span or -1.  Spans are kept in memory and written as JSON when
the command ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("corpus", "vectorspace", "pregroup", "composition", "evaluation")


def _nnz(value) -> int:
    return len(value.entries)


def _products(occurrences) -> int:
    total = 0
    for occurrence in occurrences:
        product = 1
        for vector in occurrence if isinstance(occurrence, tuple) else (occurrence,):
            product *= _nnz(vector)
        total += product
    return total


def _build_counts(args, kwargs, result) -> dict:
    return {
        "occurrences": len(args[0]),
        "products": _products(args[0]),
        "entries": _nnz(result),
    }


def _padded(args, kwargs, result) -> dict:
    grown = [
        _nnz(after.value)
        for before, after in zip(args, result)
        if after.sentence_space is not before.sentence_space
    ]
    return {"padded_entries": sum(grown)}


# Counts taken at the boundary of a call, from its arguments and result.
COUNTERS = {
    "corpus.count_cooccurrence": lambda a, k, r: {"tokens": sum(len(doc) for doc in a[0])},
    "corpus.build_verb_tensor": _build_counts,
    "corpus.build_ditransitive_tensor": _build_counts,
    "corpus.build_intransitive_tensor": _build_counts,
    "corpus.build_adjective_tensor": _build_counts,
    "vectorspace.tensor_add": lambda a, k, r: {"passed": _nnz(a[0]) + _nnz(a[1])},
    "vectorspace.load_vectors": lambda a, k, r: {"rows": sum(_nnz(v) for v in r.values())},
    "vectorspace.load_tensor": lambda a, k, r: {"entries": _nnz(r)},
    "vectorspace.save_vectors": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "vectorspace.save_tensor": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "vectorspace.cosine": lambda a, k, r: {"operands": _nnz(a[0]) + _nnz(a[1])},
    "composition.compose_sentence": lambda a, k, r: {"words": " ".join(a[0])},
    "composition.align_orders": _padded,
    "evaluation.model_similarity": lambda a, k, r: {"model": k.get("model", a[1] if len(a) > 1 else None)},
}


class Tracer:
    """Spans of one process, recorded by wrappers installed over the layers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            if counter is not None:
                spans[index][4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every imported name."""
        import gramsem.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items() if n.startswith("gramsem.") and m]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"gramsem.{layer}"]
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not hasattr(value, "__wrapped__")
                ):
                    replaced[value] = self.wrap(f"{layer}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS_JSON -- <gramsem arguments>", file=sys.stderr)
        return 2
    out, args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from gramsem.cli import main as cli_main

    try:
        code = cli_main(args)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
