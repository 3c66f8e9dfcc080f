"""Disambiguation experiments: score sentence pairs, correlate with humans.

A dataset is a list of sentence pairs with gold ratings in [1, 7] and a
HIGH/LOW tag.  Several rows may share an id, one per annotator.  Models:

* ``categorical``   cosine of grammatically composed meanings (meanings of
                    different orders are embedded into the larger space),
* ``add``           cosine of the summed word vectors,
* ``multiply``      cosine of the pointwise-multiplied word vectors,
* ``weighted_add``  alpha * (noun vectors) + beta * (verb vector),
* ``verb_baseline`` cosine of the two verb representations alone.

For the folding models a verb or adjective contributes its order-1 tensor
where it has one, else its plain co-occurrence vector.  rho is taken
against each pair's mean rating.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ._value import Value
from .composition import _MODIFIER, LexicalSemantics, _plan, align_orders, compose_sentence
from .errors import CompositionError, DatasetError, DegenerateDataError, FileFormatError
from .pregroup import SENTENCE, Lexicon
from .vectorspace import SemTensor, add, cosine, pointwise_mul, scale
from .vectorspace import _breaks_line, _read_records, _write_lines

MODELS = ("categorical", "add", "multiply", "weighted_add", "verb_baseline")
HIGH = "HIGH"
LOW = "LOW"


class SentencePair(Value):
    _fields = ("pair_id", "sentence_1", "sentence_2", "gold_rating", "tag")

    def __init__(
        self, pair_id: str, sentence_1: Sequence[str], sentence_2: Sequence[str],
        gold_rating: float | None = None, tag: str | None = None,
    ):
        sentence_1, sentence_2 = tuple(sentence_1), tuple(sentence_2)
        if not sentence_1 or not sentence_2:
            raise ValueError("both sentences must be non-empty")
        if gold_rating is not None and not 1.0 <= gold_rating <= 7.0:
            raise ValueError(f"rating {gold_rating} outside [1, 7]")
        if tag is not None and tag not in (HIGH, LOW):
            raise ValueError(f"tag must be HIGH or LOW, got {tag!r}")
        super().__init__(pair_id, sentence_1, sentence_2, gold_rating, tag)


class ModelScore(Value):
    _fields = ("mean_high", "mean_low", "rho")

    def __init__(self, mean_high: float, mean_low: float, rho: float):
        super().__init__(mean_high, mean_low, rho)


class ExperimentReport(Value):
    _fields = ("scores", "degenerate")

    def __init__(self, scores: Mapping[str, ModelScore],
                 degenerate: Mapping[str, str] | None = None):
        super().__init__(scores, {} if degenerate is None else degenerate)

    def table(self) -> str:
        lines = [f"{'Model':<14}{'High':>8}{'Low':>8}{'rho':>8}"]
        for model, s in self.scores.items():
            lines.append(f"{model:<14}{s.mean_high:>8.2f}{s.mean_low:>8.2f}{s.rho:>8.2f}")
        return "\n".join(lines)

    def tsv_lines(self) -> list[str]:
        rows = ["model\tmean_high\tmean_low\trho"]
        for model, s in self.scores.items():
            rows.append(f"{model}\t{s.mean_high!r}\t{s.mean_low!r}\t{s.rho!r}")
        return rows


def _word_roles(words: Sequence[str], grammar: Lexicon) -> list[tuple[str, str]]:
    """Tag each word noun/adj/verb.

    The verb is the one ``compose_sentence``'s slot plan finds, so every
    model agrees on it and rejects the strings it rejects.  Any other word
    keeps its lexical role, from its first type without ``s``: a noun used
    as a modifier still folds by its noun vector.
    """
    verb, _ = _plan(words, grammar)
    roles = []
    for position, word in enumerate(words):
        if position == verb:
            role = "verb"
        else:
            lexical = next(
                t for t in grammar.types_for(word) if all(a.base != SENTENCE for a in t.atoms)
            )
            role = "adj" if lexical == _MODIFIER else "noun"
        roles.append((word, role))
    return roles


def _folded(
    words: Sequence[str],
    lex: LexicalSemantics,
    grammar: Lexicon,
    combine: str,
    alpha: float,
    beta: float,
    memo: dict,
) -> SemTensor:
    """The add/multiply/weighted fold of a sentence's word vectors.  A word that
    is not a noun contributes its order-1 tensor, else its plain vector."""
    key = ("fold", combine, words, alpha, beta)
    out = memo.get(key)
    if out is not None:
        return out
    parts = []
    for word, role in _word_roles(words, grammar):
        if role != "noun" and lex.tensor_order(word) == 1:
            v = lex.tensors[word]
        else:
            v = lex.vector(word)
        if combine == "weighted_add":
            v = scale(v, beta if role == "verb" else alpha)
        parts.append(v)
    out = parts[0]
    for v in parts[1:]:
        out = pointwise_mul(out, v) if combine == "multiply" else add(out, v)
    memo[key] = out
    return out


def _the_verb(words: Sequence[str], grammar: Lexicon, memo: dict) -> str:
    key = ("verb", words)
    verb = memo.get(key)
    if verb is None:
        position, _ = _plan(words, grammar)
        if position is None:
            raise CompositionError(f"expected a verb in {' '.join(words)!r}")
        verb = memo[key] = words[position]
    return verb


def _verb_cosine(v1: str, v2: str, lex: LexicalSemantics, memo: dict) -> float:
    """The verb baseline: cosine of the verbs' tensors when their orders agree,
    else of their plain vectors."""
    key = ("verb_baseline", v1, v2)
    value = memo.get(key)
    if value is None:
        order = lex.tensor_order(v1)
        if order is not None and order == lex.tensor_order(v2):
            value = cosine(lex.tensors[v1], lex.tensors[v2])
        else:
            value = cosine(lex.vector(v1), lex.vector(v2))
        memo[key] = value
    return value


def model_similarity(
    pair: SentencePair,
    model: str,
    lex: LexicalSemantics,
    grammar: Lexicon,
    *,
    alpha: float = 0.5,
    beta: float = 0.5,
    memo: dict | None = None,
) -> float:
    """Similarity of the pair's sentences under one model, in [-1, 1].

    Every model reads the sentences' grammar through one slot plan: a
    sentence whose types reduce to neither a sentence nor a noun phrase
    raises ``UngrammaticalError``, and one whose links are not a verb with
    its noun phrases, or one noun phrase, raises ``CompositionError``.  A
    computed weight that is not finite raises ``ValueError`` whose message
    starts with the model and both sentences.

    ``memo`` is a dict that calls for one ``lex`` and ``grammar`` share, as
    one model's pairs in ``run_experiment`` do: it keeps each sentence's verb,
    each folded sentence vector (keyed by model, words, ``alpha`` and
    ``beta``) and each ordered verb pair's cosine.  Of the categorical
    model's composed meanings it keeps only the last pair's two, unpadded:
    a sentence that pair shares with the next reuses its meaning and norm.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    if memo is None:
        memo = {}
    owner = memo.setdefault("semantics", (lex, grammar))
    if owner[0] is not lex or owner[1] is not grammar:
        raise ValueError("a memo serves one lexical semantics and one grammar")
    s1, s2 = pair.sentence_1, pair.sentence_2
    try:
        if model == "categorical":
            last = memo.get("meanings", {})
            meanings = {s: last.get(s) or compose_sentence(s, lex, grammar)
                        for s in dict.fromkeys((s1, s2))}
            memo["meanings"] = meanings
            m1, m2 = align_orders(meanings[s1], meanings[s2])
            return cosine(m1.value, m2.value)
        if model == "verb_baseline":
            v1 = _the_verb(s1, grammar, memo)
            v2 = _the_verb(s2, grammar, memo)
            return _verb_cosine(v1, v2, lex, memo)
        f1 = _folded(s1, lex, grammar, model, alpha, beta, memo)
        f2 = _folded(s2, lex, grammar, model, alpha, beta, memo)
        return cosine(f1, f2)
    except FileFormatError:  # a tensor file read on first use names its own path:line
        raise
    except ValueError as exc:  # a computed weight that is not finite
        raise ValueError(f"{model}: {' '.join(s1)!r} / {' '.join(s2)!r}: {exc}") from exc


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; ties get the mean of the ranks they span."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        mean_rank = (start + stop) / 2 + 1
        for position in range(start, stop + 1):
            ranks[order[position]] = mean_rank
        start = stop + 1
    return ranks


def spearman_rho(model_scores: Sequence[float], human_ratings: Sequence[float]) -> float:
    """Pearson correlation of average ranks.

    Raises ``DegenerateDataError`` when either list is constant (the
    correlation is undefined there, and silently returning 0 would hide a
    broken model).
    """
    if len(model_scores) != len(human_ratings):
        raise ValueError("score and rating lists must have equal length")
    if len(model_scores) < 2:
        raise ValueError("need at least two observations")
    if len(set(model_scores)) == 1 or len(set(human_ratings)) == 1:
        raise DegenerateDataError("correlation undefined on constant input")
    rx = average_ranks(model_scores)
    ry = average_ranks(human_ratings)
    n = len(rx)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def high_low_means(
    pairs: Sequence[SentencePair], scores: Sequence[float]
) -> tuple[float, float]:
    """Mean model score over HIGH-tagged and LOW-tagged pairs."""
    if len(pairs) != len(scores):
        raise ValueError("pairs and scores must align")
    highs = [s for p, s in zip(pairs, scores) if p.tag == HIGH]
    lows = [s for p, s in zip(pairs, scores) if p.tag == LOW]
    if any(p.tag is None for p in pairs):
        raise ValueError("every pair needs a HIGH/LOW tag")
    if not highs or not lows:
        raise DegenerateDataError("need at least one pair in each tag class")
    return (math.fsum(highs) / len(highs), math.fsum(lows) / len(lows))


def _group_rows(dataset: Sequence[SentencePair]) -> list[tuple[SentencePair, list[float]]]:
    """Collapse annotator rows: one representative pair + all its ratings."""
    grouped: dict[str, tuple[SentencePair, list[float]]] = {}
    for row in dataset:
        head, ratings = grouped.setdefault(row.pair_id, (row, []))
        if (row.sentence_1, row.sentence_2, row.tag) != (head.sentence_1, head.sentence_2, head.tag):
            raise DatasetError(f"conflicting rows for pair id {row.pair_id!r}")
        if row.gold_rating is not None:
            ratings.append(row.gold_rating)
    return list(grouped.values())


def run_experiment(
    dataset: Sequence[SentencePair],
    models: Sequence[str],
    lex: LexicalSemantics,
    grammar: Lexicon,
    *,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> ExperimentReport:
    """Score every pair under each distinct model and correlate with the gold ratings.

    Rows sharing an id are one pair rated by several annotators; rho is
    taken against each pair's mean rating.  A model's pairs share one
    ``memo`` (see ``model_similarity``), so each distinct sentence fold and
    verb pair is scored once.  A model whose correlation is undefined is
    left out of the scores and named, with the reason, in ``degenerate``.
    Faults of the dataset as a whole raise ``DatasetError`` before any
    model is scored.
    """
    if not dataset:
        raise DatasetError("empty dataset")
    grouped = _group_rows(dataset)
    pairs = [pair for pair, _ in grouped]
    if any(not ratings for _, ratings in grouped):
        raise DatasetError("every pair needs at least one gold rating")
    if any(pair.tag is None for pair in pairs):
        raise DatasetError("every pair needs a HIGH/LOW tag")
    if len(pairs) < 2:
        raise DatasetError("need at least two observations")
    if {pair.tag for pair in pairs} != {HIGH, LOW}:
        raise DatasetError("need at least one pair in each tag class")
    means = [math.fsum(ratings) / len(ratings) for _, ratings in grouped]
    report: dict[str, ModelScore] = {}
    degenerate: dict[str, str] = {}
    for model in dict.fromkeys(models):
        memo: dict = {}  # one per model: no memo key is read by two models
        scores = [
            model_similarity(pair, model, lex, grammar, alpha=alpha, beta=beta, memo=memo)
            for pair in pairs
        ]
        try:
            rho = spearman_rho(scores, means)
        except DegenerateDataError as exc:
            degenerate[model] = str(exc)
            continue
        report[model] = ModelScore(*high_low_means(pairs, scores), rho)
    return ExperimentReport(report, degenerate)


def read_dataset(path) -> list[SentencePair]:
    """TSV rows ``id  sentence1  sentence2  rating  tag`` (ratings optional)."""
    expected = "expected 3-5 tab-separated fields"
    return _read_records(path, 3, 5, expected, lambda pair_id, s1, s2, rating, tag: SentencePair(
        pair_id, tuple(s1.split()), tuple(s2.split()), float(rating) if rating else None, tag or None
    ))


def save_dataset(path, dataset: Sequence[SentencePair]) -> None:
    """Write ``read_dataset``'s rows.  A pair id starting with '#' is refused:
    its line would read back as a comment.  So is one holding a tab or line
    break, and a sentence word that ``str.split`` would not read back whole."""
    for p in dataset:
        if p.pair_id[:1] == "#" or _breaks_line(p.pair_id):
            raise ValueError(f"pair id {p.pair_id!r} starts with '#' or holds a tab or line break")
        if split := [w for w in p.sentence_1 + p.sentence_2 if w.split() != [w]]:
            raise ValueError(f"word {split[0]!r} of pair {p.pair_id!r} is not one token")
    _write_lines(path, (
        f"{p.pair_id}\t{' '.join(p.sentence_1)}\t{' '.join(p.sentence_2)}"
        f"\t{'' if p.gold_rating is None else repr(p.gold_rating)}\t{p.tag or ''}"
        for p in dataset
    ))
