"""Command-line entry point for batch builds, similarity queries and evaluation.

Subcommands: ``build-nouns``, ``build-verb``, ``build-adj``, ``sim``,
``eval``.  All outputs are plain TSV written via write-then-rename with
sorted rows, so reruns over identical inputs are byte-identical and a
failed run never leaves a partial file.  Skipped-record counts go to a
single machine-readable ``summary`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import composition, corpus, evaluation, pregroup, vectorspace
from .errors import DatasetError, FileFormatError, GramsemError, LexiconError

_ALL_MODELS = list(evaluation.MODELS)


_SPACE_NAME = "N"


def _space_from(basis_path: str, semantics_dir: str) -> vectorspace.BasisRegistry:
    """Basis registry for the CLI run; nouns.tsv's header fixes name and kind."""
    name = _SPACE_NAME
    kind = vectorspace.PLAIN
    nouns_path = os.path.join(semantics_dir, "nouns.tsv")
    if not os.path.exists(nouns_path):
        raise GramsemError(f"{nouns_path} not found; run build-nouns first")
    with vectorspace.open_text(nouns_path) as handle:
        parts = handle.readline().rstrip("\n").split("\t")
    if len(parts) == 3 and parts[0] == "#space":
        name, kind = parts[1], parts[2]
        if not name:
            raise FileFormatError(f"{nouns_path}:1: space name must be non-empty")
        if kind not in (vectorspace.PLAIN, vectorspace.STRUCTURED):
            raise FileFormatError(f"{nouns_path}:1: unknown basis kind: {kind!r}")
    return corpus.read_basis(basis_path, name=name, kind=kind)


def _summary(**counts) -> None:
    fields = "\t".join(f"{key}={value}" for key, value in counts.items())
    print(f"summary\t{fields}", file=sys.stderr)


def cmd_build_nouns(args) -> int:
    space = corpus.read_basis(args.basis, name=_SPACE_NAME, kind=vectorspace.PLAIN)
    if not space.labels:
        raise GramsemError(f"basis file {args.basis} is empty")
    # One pass, counting each document as it is read, so the corpus may be a pipe.
    documents = corpus.read_corpus(args.corpus)
    acc = corpus.count_cooccurrence(documents, None, space, window=args.window)
    if acc.doc_count == 0:
        raise GramsemError(f"corpus file {args.corpus} has no documents")
    # A word starting with '#' would read back as a comment row of nouns.tsv.
    hashed = [word for word in acc.counts if word[0] == "#"]
    for word in hashed:
        del acc.counts[word]
    vectors = corpus.tfidf(acc) if args.weighting == "tfidf" else corpus.raw_vectors(acc)
    out = args.out or "nouns.tsv"
    written = vectorspace.save_vectors(out, vectors, space)  # weighs one word at a time
    # A target with no nonzero weight writes no row: later commands treat it
    # as out of vocabulary, so say how many there were.
    _summary(documents=acc.doc_count, targets=len(acc.counts),
             zero_vectors=len(acc.counts) - written, written=out, hash_words=len(hashed))
    return 0


def _build_tensor(args, kind: str, word: str, records, builders, skipped_key: str) -> int:
    """Sum the argument vectors of ``word``'s occurrences into its tensor,
    save it under ``<dir>/<kind>s/`` and print the summary.

    ``records(path)`` yields each record of the records file as the
    relational word and its argument nouns; ``builders`` maps an arity to
    its tensor builder.  The first occurrence fixes the arity: one of
    another arity, or with a noun that has no vector, is skipped and
    counted under ``skipped_key``.
    """
    space = _space_from(args.basis, args.semantics_dir)
    occurrences = [nouns for head, nouns in records(args.triples) if head == word]
    if not occurrences:
        raise GramsemError(f"{kind} {word!r} does not occur in {args.triples}")
    vectors = vectorspace.load_vectors(  # of the nouns the word occurs with
        os.path.join(args.semantics_dir, "nouns.tsv"), space, set().union(*occurrences))
    arity = len(occurrences[0])
    kept = [
        tuple(vectors[n] for n in nouns)
        for nouns in occurrences
        if len(nouns) == arity and all(n in vectors for n in nouns)
    ]
    tensor = builders[arity]([k[0] for k in kept] if arity == 1 else kept, space=space)
    out = args.out or os.path.join(args.semantics_dir, f"{kind}s", f"{word}.tsv")
    if not args.out:  # a given --out's directory must exist, as for every command
        os.makedirs(os.path.dirname(out), exist_ok=True)
    vectorspace.save_tensor(out, tensor)
    skipped = len(occurrences) - len(kept)
    _summary(**{kind: word, "occurrences": len(kept), skipped_key: skipped, "written": out})
    return 0


def cmd_build_verb(args) -> int:
    def records(path):
        for t in corpus.read_triples(path):
            yield t.verb, [n for n in (t.subject, t.obj, t.iobj) if n]

    builders = {1: corpus.build_intransitive_tensor, 2: corpus.build_verb_tensor,
                3: corpus.build_ditransitive_tensor}
    return _build_tensor(args, "verb", args.verb, records, builders, "skipped_triples")


def cmd_build_adj(args) -> int:
    def records(path):
        for adjective, noun in corpus.read_adjective_pairs(path):
            yield adjective, [noun]

    builders = {1: corpus.build_adjective_tensor}
    return _build_tensor(args, "adjective", args.adjective, records, builders, "skipped_pairs")


def cmd_sim(args) -> int:
    space = _space_from(args.basis, args.semantics_dir)
    pair = evaluation.SentencePair(
        "cli", tuple(args.sentence1.split()), tuple(args.sentence2.split())
    )
    lex = composition.load_semantics(args.semantics_dir, space, pair.sentence_1 + pair.sentence_2)
    grammar = pregroup.load_lexicon(args.lexicon)
    try:
        value = evaluation.model_similarity(pair, args.model, lex, grammar)
    except LexiconError as exc:  # a word lookup's message names no file
        raise LexiconError(f"{args.lexicon}: {exc}") from None
    print(f"{value:.6f}")
    return 0


def cmd_eval(args) -> int:
    """A model whose correlation is undefined is reported and left out; ``--out``
    is written before anything is printed, and the run fails if no model scored."""
    space = _space_from(args.basis, args.semantics_dir)
    dataset = evaluation.read_dataset(args.dataset)
    words = {word for pair in dataset for word in pair.sentence_1 + pair.sentence_2}
    lex = composition.load_semantics(args.semantics_dir, space, words)
    grammar = pregroup.load_lexicon(args.lexicon)
    try:
        report = evaluation.run_experiment(dataset, args.model or _ALL_MODELS, lex, grammar)
    except DatasetError as exc:
        raise FileFormatError(f"{args.dataset}: {exc}") from None
    except LexiconError as exc:
        raise LexiconError(f"{args.lexicon}: {exc}") from None
    if report.scores and args.out:
        vectorspace._write_lines(args.out, report.tsv_lines())
    for model, reason in report.degenerate.items():
        print(f"gramsem: {model}: {reason}", file=sys.stderr)
    _summary(models=len(report.scores) + len(report.degenerate), scored=len(report.scores),
             degenerate=",".join(report.degenerate))
    if not report.scores:
        return 1
    print(report.table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramsem",
        description="Grammar-driven tensor composition of word vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-nouns", help="count co-occurrences and write word vectors")
    p.add_argument("--corpus", required=True, help="one tokenized document per line")
    p.add_argument("--basis", required=True, help="one basis label per line")
    p.add_argument("--window", type=int, default=5, help="context window size (default 5)")
    p.add_argument("--weighting", choices=("raw", "tfidf"), default="tfidf")
    p.add_argument("--out", help="output vector file (default nouns.tsv)")
    p.set_defaults(func=cmd_build_nouns)

    p = sub.add_parser("build-verb", help="sum argument Kronecker products into a verb tensor")
    p.add_argument("verb")
    p.add_argument("--triples", required=True, help="TSV subject/verb/object(/indirect)")
    p.add_argument("--basis", required=True)
    p.add_argument("--semantics-dir", required=True, help="directory holding nouns.tsv")
    p.add_argument("--out", help="output tensor file (default <dir>/verbs/<verb>.tsv)")
    p.set_defaults(func=cmd_build_verb)

    p = sub.add_parser("build-adj", help="sum argument vectors into an adjective tensor")
    p.add_argument("adjective")
    p.add_argument("--triples", required=True, help="TSV adjective/argument pairs")
    p.add_argument("--basis", required=True)
    p.add_argument("--semantics-dir", required=True)
    p.add_argument("--out", help="output tensor file (default <dir>/adjectives/<adj>.tsv)")
    p.set_defaults(func=cmd_build_adj)

    p = sub.add_parser("sim", help="similarity of two sentences under one model")
    p.add_argument("sentence1")
    p.add_argument("sentence2")
    p.add_argument("--lexicon", required=True, help="TSV word/pregroup-type file")
    p.add_argument("--basis", required=True)
    p.add_argument("--semantics-dir", required=True)
    p.add_argument("--model", choices=_ALL_MODELS, default="categorical")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("eval", help="run a disambiguation experiment over a dataset")
    p.add_argument("--dataset", required=True, help="TSV id/sentence1/sentence2/rating/tag")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--semantics-dir", required=True)
    p.add_argument("--model", action="append", choices=_ALL_MODELS,
                   help="repeatable; default: all models")
    p.add_argument("--out", help="also write the report as TSV")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GramsemError, OSError, ValueError) as exc:
        print(f"gramsem: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
