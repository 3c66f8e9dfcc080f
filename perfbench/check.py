"""Check the CLI's outputs against a computation made apart from the program.

Nothing here imports ``gramsem``.  With numpy and scipy it recomputes:

* the noun vectors from the generated corpus: window co-occurrence counts
  that never cross a document boundary, weighted by
  count * ln(documents / document frequency);
* every tensor: the dense sum of s (x) o (x) i over the word's occurrences
  (order 1 for intransitive verbs and adjectives), from those vectors;
* every model's score of every pair, from the paper's definitions and the
  vector and tensor files once they match: a sentence's meaning is the verb
  tensor times the tensor product of its (adjective-modified) arguments,
  and a meaning of smaller order is padded with the superposition of all
  basis vectors, so that <pad(a), B> = sum_i a_i * rowsum_i(B) and
  |pad(a)| = sqrt(d^k) * |a|;
* the HIGH/LOW means and Spearman's rho (``scipy.stats.spearmanr``).

``check_outputs`` returns a list of problems; an empty list means the
outputs are right.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import spearmanr

WINDOW = 5
MODELS = ("categorical", "add", "multiply", "weighted_add", "verb_baseline")
WEIGHT = 0.5  # alpha and beta of weighted_add, the CLI's defaults
RTOL = 1e-9


def tfidf_vectors(world) -> dict[str, np.ndarray]:
    """Dense TF/IDF vector of every corpus token that has a nonzero weight."""
    dim = len(world.basis)
    basis_index = {label: i for i, label in enumerate(world.basis)}
    vocabulary = sorted({token for doc in world.documents for token in doc})
    word_id = {word: i for i, word in enumerate(vocabulary)}
    tokens = np.array([word_id[t] for doc in world.documents for t in doc], dtype=np.int64)
    contexts = np.array(
        [basis_index.get(t, -1) for doc in world.documents for t in doc], dtype=np.int64
    )
    doc_of = np.repeat(np.arange(len(world.documents)), [len(d) for d in world.documents])
    keys = []
    for offset in range(1, WINDOW + 1):
        same = doc_of[:-offset] == doc_of[offset:]
        for target, context in (
            (tokens[:-offset], contexts[offset:]),
            (tokens[offset:], contexts[:-offset]),
        ):
            keep = same & (context >= 0)
            keys.append(target[keep] * dim + context[keep])
    cells, counts = np.unique(np.concatenate(keys), return_counts=True)
    seen = np.unique(doc_of[contexts >= 0] * dim + contexts[contexts >= 0]) % dim
    frequency = np.bincount(seen, minlength=dim)
    idf = np.zeros(dim)
    present = frequency > 0
    idf[present] = np.log(len(world.documents) / frequency[present])
    matrix = np.zeros((len(vocabulary), dim))
    matrix[cells // dim, cells % dim] = counts * idf[cells % dim]
    return {word: matrix[i] for i, word in enumerate(vocabulary) if matrix[i].any()}


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = [line.split("\t") for line in lines if line and not line.startswith("#")]
    return comments, rows


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all((a != 0) == (b != 0))) and np.allclose(
        a, b, rtol=RTOL, atol=0.0
    )


def check_vectors(path: str, vectors: dict[str, np.ndarray], basis: list[str]):
    """Problems of the program's vector file, and the vectors it holds."""
    comments, rows = _read_table(path)
    if comments[:1] != ["#space\tN\tplain"]:
        return [f"{path}: unexpected header {comments[:1]}"], {}
    index = {label: i for i, label in enumerate(basis)}
    cells: dict[str, list[tuple[int, float]]] = {}
    for word, label, weight in rows:
        cells.setdefault(word, []).append((index[label], float(weight)))
    found = {}
    for word, pairs in cells.items():
        found[word] = np.zeros(len(basis))
        for i, weight in pairs:
            found[word][i] = weight
    if len(rows) != sum(int(np.count_nonzero(v)) for v in found.values()):
        return [f"{path}: repeated or zero rows"], found
    if set(found) != set(vectors):
        return [f"{path}: words differ from the independent count: "
                f"{sorted(set(found) ^ set(vectors))[:5]}"], found
    bad = [w for w in vectors if not _close(found[w], vectors[w])]
    return [f"{path}: vectors differ for {bad[:5]}"] if bad else [], found


def expected_tensors(world, vectors) -> dict[str, np.ndarray]:
    """Kronecker sums over each relational word's usable occurrences."""
    dim = len(world.basis)
    tensors = {}
    for verb in world.verbs:
        records = [t for t in world.triples if t[1] == verb]
        arity = len(records[0]) - 1
        args = [
            [t[0], *t[2:]]
            for t in records
            if len(t) - 1 == arity and all(n in vectors for n in [t[0], *t[2:]])
        ]
        stacks = [np.array([vectors[a[k]] for a in args]).reshape(len(args), dim)
                  for k in range(arity)]
        if arity == 1:
            tensors[verb] = stacks[0].sum(axis=0)
        elif arity == 2:
            tensors[verb] = stacks[0].T @ stacks[1]
        else:
            tensors[verb] = np.einsum("ni,nj,nk->ijk", *stacks)
    for adjective in world.adjectives:
        nouns = [n for a, n in world.adjective_records if a == adjective and n in vectors]
        tensors[adjective] = np.array([vectors[n] for n in nouns]).reshape(-1, dim).sum(axis=0)
    return tensors


def check_tensor(path: str, expected: np.ndarray, basis: list[str]):
    """Problems of the program's tensor file, and the tensor it holds."""
    comments, rows = _read_table(path)
    if f"#order\t{expected.ndim}" not in comments:
        return [f"{path}: missing '#order {expected.ndim}' line"], expected
    index = {label: i for i, label in enumerate(basis)}
    found = np.zeros(expected.shape)
    for row in rows:
        found[tuple(index[label] for label in row[:-1])] = float(row[-1])
    if len(rows) != np.count_nonzero(found) or not _close(found, expected):
        return [f"{path}: tensor differs from the dense Kronecker sum"], found
    return [], found


class Meaning:
    """A composed meaning on the product of its arguments' supports.

    ``axes`` holds the support indices of each argument; ``block`` the
    tensor's values on their Cartesian product.  Cells outside are zero.
    """

    def __init__(self, axes: list[np.ndarray], block: np.ndarray) -> None:
        self.axes, self.block = axes, block

    @property
    def order(self) -> int:
        return len(self.axes)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.block * self.block)))

    def rowsum(self, order: int) -> "Meaning":
        """Sum over the trailing axes that padding to this order would add."""
        return Meaning(self.axes[:order], self.block.sum(axis=tuple(range(order, self.order))))


def _inner(a: Meaning, b: Meaning) -> float:
    pick_a, pick_b = [], []
    for axis_a, axis_b in zip(a.axes, b.axes):
        _, ia, ib = np.intersect1d(axis_a, axis_b, assume_unique=True, return_indices=True)
        pick_a.append(ia)
        pick_b.append(ib)
    return float(np.sum(a.block[np.ix_(*pick_a)] * b.block[np.ix_(*pick_b)]))


def meaning_cosine(a: Meaning, b: Meaning, dim: int) -> float:
    """Cosine after padding the smaller-order meaning, in closed form."""
    if a.order > b.order:
        a, b = b, a
    pad = math.sqrt(float(dim) ** (b.order - a.order))
    na, nb = pad * a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        return 0.0
    if a.order == b.order and all(map(np.array_equal, a.axes, b.axes)) and np.array_equal(
        a.block, b.block
    ):
        return 1.0
    return max(-1.0, min(1.0, _inner(a, b.rowsum(a.order)) / (na * nb)))


def dense_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine with every sum taken term by term in index order.

    Mathematically equal scores of different pairs then come out equal, as
    they do in the program, so Spearman ranks them as the same tie.
    """
    a, b = a.ravel(), b.ravel()
    na = math.sqrt(sum(x * x for x in a[np.flatnonzero(a)].tolist()))
    nb = math.sqrt(sum(x * x for x in b[np.flatnonzero(b)].tolist()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    if np.array_equal(a, b):
        return 1.0
    both = np.flatnonzero((a != 0) & (b != 0))
    inner = sum(x * y for x, y in zip(a[both].tolist(), b[both].tolist()))
    return max(-1.0, min(1.0, inner / (na * nb)))


class Scorer:
    """The five models, computed from the independent vectors and tensors."""

    def __init__(self, world, vectors, tensors) -> None:
        self.world, self.vectors, self.tensors = world, vectors, tensors
        self.dim = len(world.basis)

    def meaning(self, sentence: str) -> Meaning:
        verb, groups = self.world.structure[sentence]
        arguments = []
        for *modifiers, noun in groups:
            vector = self.vectors[noun]
            for modifier in reversed(modifiers):
                vector = self.tensors[modifier] * vector
            arguments.append(vector)
        axes = [np.flatnonzero(a) for a in arguments]
        block = self.tensors[verb][np.ix_(*axes)]
        for k, (a, axis) in enumerate(zip(arguments, axes)):
            shape = [1] * len(axes)
            shape[k] = len(axis)
            block = block * a[axis].reshape(shape)
        return Meaning(axes, block)

    def fold_part(self, word: str) -> np.ndarray:
        tensor = self.tensors.get(word)
        if self.world.roles[word] != "noun" and tensor is not None and tensor.ndim == 1:
            return tensor
        return self.vectors[word]

    def folded(self, sentence: str, model: str) -> np.ndarray:
        parts = [self.fold_part(w) for w in sentence.split()]
        if model == "weighted_add":
            parts = [p * WEIGHT for p in parts]
        out = parts[0]
        for part in parts[1:]:
            out = out * part if model == "multiply" else out + part
        return out

    def score(self, s1: str, s2: str, model: str) -> float:
        if model == "categorical":
            return meaning_cosine(self.meaning(s1), self.meaning(s2), self.dim)
        if model == "verb_baseline":
            v1, v2 = self.world.structure[s1][0], self.world.structure[s2][0]
            t1, t2 = self.tensors[v1], self.tensors[v2]
            if t1.ndim == t2.ndim:
                return dense_cosine(t1, t2)
            return dense_cosine(self.vectors[v1], self.vectors[v2])
        return dense_cosine(self.folded(s1, model), self.folded(s2, model))


def check_report(path: str, world, scorer: Scorer) -> list[str]:
    pairs: dict[str, list] = {}
    for pair_id, s1, s2, rating, tag in world.dataset:
        pairs.setdefault(pair_id, [s1, s2, tag, []])[3].append(rating)
    ratings = [math.fsum(r) / len(r) for *_, r in pairs.values()]
    _, rows = _read_table(path)
    if [row[0] for row in rows] != ["model", *MODELS]:
        return [f"{path}: unexpected models {[row[0] for row in rows]}"]
    problems = []
    for model, *values in rows[1:]:
        scores = [scorer.score(s1, s2, model) for s1, s2, _, _ in pairs.values()]
        if not all(-1.0 <= s <= 1.0 for s in scores):
            problems.append(f"{model}: a cosine outside [-1, 1]")
        high = [s for s, (_, _, tag, _) in zip(scores, pairs.values()) if tag == "HIGH"]
        low = [s for s, (_, _, tag, _) in zip(scores, pairs.values()) if tag == "LOW"]
        expected = (
            math.fsum(high) / len(high),
            math.fsum(low) / len(low),
            float(spearmanr(scores, ratings).statistic),
        )
        found = tuple(float(v) for v in values)
        if not np.allclose(found, expected, rtol=RTOL, atol=1e-12):
            problems.append(f"{model}: report {found} != independent {expected}")
    return problems


def check_outputs(world, semantics: str, report: str, sims: list[str]) -> list[str]:
    """Every problem found in one round's outputs (empty when all are right).

    Scores are computed from the vector and tensor files once those match
    the independent counts, so that the evaluation is checked on exactly
    the inputs the program read.
    """
    vectors = tfidf_vectors(world)
    problems, found = check_vectors(f"{semantics}/nouns.tsv", vectors, world.basis)
    tensors = {}
    for word, expected in expected_tensors(world, vectors).items():
        kind = "verbs" if word in world.verbs else "adjectives"
        more, tensors[word] = check_tensor(f"{semantics}/{kind}/{word}.tsv", expected, world.basis)
        problems += more
    if problems:
        return problems
    scorer = Scorer(world, found, tensors)
    problems += check_report(report, world, scorer)
    for (s1, s2, model), printed in zip(world.sims, sims):
        value = float(printed)
        if not -1.0 <= value <= 1.0 or abs(value - scorer.score(s1, s2, model)) > 1.5e-6:
            problems.append(f"sim {s1!r} {s2!r} {model}: printed {printed.strip()}")
    return problems
