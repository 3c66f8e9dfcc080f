"""Seeded synthetic worlds for the benchmark, written as the files the CLI reads.

A world is built from topics.  Every topic owns a pool of basis (context)
words, and every noun a fixed-size profile drawn from its topic's pool and
a shared general pool.  A noun's documents hold only its profile words, so
every noun of a workload has the same number of nonzeros and the cost of a
run hardly depends on the seed.  An ambiguous verb has two senses (two
topics), every other relational word one; each occurrence adds a document
in which the word sits between contexts of its arguments.  Subjects, verbs
and objects of one sense therefore share contexts, which keeps every
model's score list non-constant: with unrelated profiles ``multiply``
scores every pair 0 and ``gramsem eval`` exits 1 on the undefined
correlation.

Gold ratings follow the planted senses: a HIGH pair's sentences share a
sense, a LOW pair's do not.  The generator keeps out two known faults of
the program: every word's first lexicon type is the role the folding
models give it (ambiguous nouns list ``n`` first and are only ever used as
nouns or as noun modifiers), and no pair holds a bare noun phrase.

This module does not import ``gramsem``: the benchmark hands the program
only the files written here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

NOUN = "n"
MODIFIER = "n n^l"
INTRANSITIVE = "n^r s"
TRANSITIVE = "n^r s n^l"
DITRANSITIVE = "n^r s n^l n^l"
ARITY_TYPE = {1: INTRANSITIVE, 2: TRANSITIVE, 3: DITRANSITIVE}
DOC_LEN = 10  # context words per document: the CLI's window of 5 on each side


@dataclass(frozen=True)
class Params:
    """The shape of one world; every count here is independent of the seed."""

    dim: int  # basis size
    topics: int
    general: int  # basis words shared by every topic
    nouns_per_topic: int
    profile: int  # topic-pool context words of each noun
    profile_general: int  # general context words of each noun
    noun_docs: int  # documents per noun; DOC_LEN * noun_docs >= the profile
    filler_docs: int  # documents of topic context words only
    # (name, arity, sense topics, occurrence count); the count is split
    # evenly over the senses
    verbs: tuple[tuple[str, int, tuple[int, ...], int], ...]
    # ambiguous verb -> (landmark of its first sense, landmark of its second)
    landmarks: dict[str, tuple[str, str]] = field(default_factory=dict)
    bases_per_sense: int = 0  # base sentences per sense of each ambiguous verb
    annotators: int = 1
    adjectives: tuple[tuple[str, int, int], ...] = ()  # (name, topic, records)
    modifier_nouns: int = 0  # nouns that also take the modifier type
    mixed_pairs: int = 0  # cross-arity pairs of the mixed workload


@dataclass
class World:
    """Everything a workload hands the CLI, plus the structure the checker needs."""

    basis: list[str]
    documents: list[list[str]]
    triples: list[tuple[str, ...]]
    adjective_records: list[tuple[str, str]]
    lexicon: list[tuple[str, str]]
    dataset: list[tuple[str, str, str, float, str]]
    verbs: list[str]
    adjectives: list[str]
    sims: list[tuple[str, str, str]]  # (sentence 1, sentence 2, model)
    # sentence -> (verb, argument groups); a group is (modifiers..., noun)
    structure: dict[str, tuple[str, tuple[tuple[str, ...], ...]]] = field(default_factory=dict)
    roles: dict[str, str] = field(default_factory=dict)  # word -> role of its first type

    def write(self, directory: str) -> dict[str, str]:
        """Write the input files and create the semantics directory; returns paths."""
        os.makedirs(directory, exist_ok=True)
        paths = {
            name: os.path.join(directory, file)
            for name, file in (
                ("corpus", "corpus.txt"),
                ("basis", "basis.txt"),
                ("triples", "triples.tsv"),
                ("adjectives", "adjectives.tsv"),
                ("lexicon", "lexicon.tsv"),
                ("dataset", "dataset.tsv"),
            )
        }
        _write_lines(paths["corpus"], (" ".join(doc) for doc in self.documents))
        _write_lines(paths["basis"], self.basis)
        _write_lines(paths["triples"], ("\t".join(t) for t in self.triples))
        _write_lines(paths["adjectives"], (f"{a}\t{n}" for a, n in self.adjective_records))
        _write_lines(paths["lexicon"], (f"{w}\t{t}" for w, t in self.lexicon))
        _write_lines(
            paths["dataset"],
            (f"{i}\t{s1}\t{s2}\t{r!r}\t{tag}" for i, s1, s2, r, tag in self.dataset),
        )
        paths["semantics"] = os.path.join(directory, "sem")
        os.makedirs(paths["semantics"], exist_ok=True)
        return paths


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line + "\n")


def _zipf(n: int) -> list[float]:
    return [1.0 / (rank + 1) ** 0.6 for rank in range(n)]


class _Maker:
    """Shared machinery: topic pools, documents, lexicon and dataset rows."""

    def __init__(self, params: Params, rng: random.Random) -> None:
        self.p = params
        self.rng = rng
        width = len(str(params.dim - 1))
        self.basis = [f"c{i:0{width}d}" for i in range(params.dim)]
        shuffled = list(self.basis)
        rng.shuffle(shuffled)
        self.general_pool = shuffled[: params.general]
        rest = shuffled[params.general :]
        size = len(rest) // params.topics
        self.pools = [rest[t * size : (t + 1) * size] for t in range(params.topics)]
        self.nouns = [
            [f"n{t:02d}x{j:02d}" for j in range(params.nouns_per_topic)]
            for t in range(params.topics)
        ]
        self.profiles = {
            noun: rng.sample(self.pools[t], params.profile)
            + rng.sample(self.general_pool, params.profile_general)
            for t, nouns in enumerate(self.nouns)
            for noun in nouns
        }
        self.documents: list[list[str]] = []
        self.lexicon: list[tuple[str, str]] = []
        self.roles: dict[str, str] = {}
        self.structure: dict[str, tuple[str, tuple[tuple[str, ...], ...]]] = {}
        self.dataset: list[tuple[str, str, str, float, str]] = []
        self.pairs = 0

    def draw(self, words: list[str], count: int) -> list[str]:
        """``count`` draws from ``words``, Zipf-weighted by position."""
        return self.rng.choices(words, weights=_zipf(len(words)), k=count)

    def background(self) -> None:
        """Every noun's documents, then the filler documents.

        A noun document holds DOC_LEN profile words with the noun in the
        middle, so the noun sees all of them within the counting window and
        its vector's support is exactly its profile.
        """
        half = DOC_LEN // 2
        for topic_nouns in self.nouns:
            for noun in topic_nouns:
                profile = self.profiles[noun]
                tokens = list(profile)
                tokens += self.draw(profile, DOC_LEN * self.p.noun_docs - len(tokens))
                self.rng.shuffle(tokens)
                for k in range(0, len(tokens), DOC_LEN):
                    chunk = tokens[k : k + DOC_LEN]
                    self.documents.append(chunk[:half] + [noun] + chunk[half:])
        for k in range(self.p.filler_docs):
            self.documents.append(self.draw(self.pools[k % self.p.topics], DOC_LEN))

    def usage(self, word: str, first: str, last: str) -> None:
        """A document where ``word`` sits between contexts of two of its arguments.

        The arguments themselves stay out of it, so a noun's support remains
        its profile while the relational word takes its arguments' contexts.
        """
        half = DOC_LEN // 2
        self.documents.append(
            self.draw(self.profiles[first], half) + [word] + self.draw(self.profiles[last], half)
        )

    def add_type(self, word: str, typ: str, role: str) -> None:
        if word not in self.roles:
            self.roles[word] = role
        self.lexicon.append((word, typ))

    def sentence(self, verb: str, groups: list[tuple[str, ...]]) -> str:
        """The text of ``[group] verb [group [group]]``, recording its structure."""
        words = list(groups[0]) + [verb] + [w for g in groups[1:] for w in g]
        text = " ".join(words)
        self.structure[text] = (verb, tuple(groups))
        return text

    def pair(self, s1: str, s2: str, high: bool) -> None:
        """One dataset pair, one row per annotator, ratings following the sense."""
        pair_id = f"p{self.pairs:04d}"
        self.pairs += 1
        for _ in range(self.p.annotators):
            if self.rng.random() < 0.1:
                rating = 4.0
            else:
                rating = float(self.rng.choice((5, 6, 7) if high else (1, 2, 3)))
            self.dataset.append((pair_id, s1, s2, rating, "HIGH" if high else "LOW"))


def _verb_occurrences(b: _Maker, verbs) -> list[tuple[str, ...]]:
    """Triples for every verb, each with a document of its arguments' contexts."""
    triples = []
    for name, arity, senses, count in verbs:
        for k in range(count):
            topic = senses[k % len(senses)]
            args = [b.rng.choice(b.nouns[topic]) for _ in range(arity)]
            triples.append((args[0], name, *args[1:]))
            b.usage(name, args[0], args[-1])
    return triples


def _same_arity_world(params: Params, rng: random.Random) -> World:
    """GS2011- or M&L-2008-shaped: ambiguous verbs with one landmark per sense."""
    b = _Maker(params, rng)
    b.background()
    triples = _verb_occurrences(b, params.verbs)
    for topic_nouns in b.nouns:
        for noun in topic_nouns:
            b.add_type(noun, NOUN, "noun")
    for name, arity, _, _ in params.verbs:
        b.add_type(name, ARITY_TYPE[arity], "verb")
    senses = {name: s for name, _, s, _ in params.verbs}
    arity = params.verbs[0][1]
    sims = []
    for verb, (first, second) in params.landmarks.items():
        for sense, (same, other) in enumerate(((first, second), (second, first))):
            topic = senses[verb][sense]
            for _ in range(params.bases_per_sense):
                args = [(rng.choice(b.nouns[topic]),) for _ in range(arity)]
                base = b.sentence(verb, args)
                b.pair(base, b.sentence(same, args), True)
                b.pair(base, b.sentence(other, args), False)
                if len(sims) < 3:
                    model = ("categorical", "verb_baseline", "add")[len(sims)]
                    landmark = other if model == "verb_baseline" else same
                    sims.append((base, b.sentence(landmark, args), model))
    return World(
        basis=b.basis,
        documents=b.documents,
        triples=triples,
        adjective_records=[],
        lexicon=b.lexicon,
        dataset=b.dataset,
        verbs=[name for name, *_ in params.verbs],
        adjectives=[],
        sims=sims,
        structure=b.structure,
        roles=b.roles,
    )


def _mixed_world(params: Params, rng: random.Random) -> World:
    """Verbs of arity 1-3, adjectives and noun modifiers, pairs across arities."""
    b = _Maker(params, rng)
    modifiers = [b.nouns[t][0] for t in range(params.modifier_nouns)]
    b.background()
    triples = _verb_occurrences(b, params.verbs)
    records = []
    for name, topic, count in params.adjectives:
        for _ in range(count):
            noun = rng.choice(b.nouns[topic])
            records.append((name, noun))
            b.usage(name, noun, noun)
    for word in modifiers:
        topic = int(word[1:3])
        for _ in range(4):
            noun = rng.choice([n for n in b.nouns[topic] if n != word])
            records.append((word, noun))
            b.usage(word, word, word)  # keeps the modifier's own support
    for topic_nouns in b.nouns:
        for noun in topic_nouns:
            b.add_type(noun, NOUN, "noun")
    for word in modifiers:
        b.add_type(word, MODIFIER, "noun")
    for name, _, _ in params.adjectives:
        b.add_type(name, MODIFIER, "adj")
    for name, arity, _, _ in params.verbs:
        b.add_type(name, ARITY_TYPE[arity], "verb")

    verb_topic = {name: senses[0] for name, _, senses, _ in params.verbs}
    by_arity: dict[int, list[str]] = {}
    for name, arity, _, _ in params.verbs:
        by_arity.setdefault(arity, []).append(name)
    adjective_topic = {name: topic for name, topic, _ in params.adjectives}

    def group(topic: int, modified: bool, by_noun: bool) -> tuple[str, ...]:
        noun = rng.choice(b.nouns[topic][1:])
        if not modified:
            return (noun,)
        if topic < len(modifiers) and by_noun:
            return (modifiers[topic], noun)
        fitting = [a for a, t in adjective_topic.items() if t == topic]
        return (fitting[0], noun) if fitting else (noun,)

    def sentence(verb: str, topic: int, arity: int, modified: bool, by_noun: bool) -> str:
        """Only the subject is modified: by an adjective, or by a noun when ``by_noun``."""
        groups = [group(topic, modified and slot == 0, by_noun) for slot in range(arity)]
        return b.sentence(verb, groups)

    # Arity pairs: mostly N vs N*N and N*N vs N*N*N, a few of the same
    # arity, and one N vs N*N*N, whose padding costs the most.
    combos = [(1, 2), (2, 3), (1, 3), (2, 2), (1, 1)]
    combos += [(1, 2), (2, 2), (1, 1), (1, 2), (2, 3), (1, 2), (2, 2), (1, 1), (1, 2), (2, 2)] * 2
    sims = []
    seen: dict[tuple[int, int], int] = {}
    for k, (a1, a2) in enumerate(combos[: params.mixed_pairs]):
        v1 = by_arity[a1][k % len(by_arity[a1])]
        seen[a1, a2] = seen.get((a1, a2), 0) + 1
        high = seen[a1, a2] % 2 == 1  # each arity pairing gets HIGH and LOW pairs
        same_topic = [v for v in by_arity[a2] if (verb_topic[v] == verb_topic[v1]) == high]
        v2 = same_topic[k % len(same_topic)]
        topic = verb_topic[v1]
        by_noun = k % 2 == 0
        s1 = sentence(v1, topic, a1, k % 3 == 0, by_noun)
        s2 = sentence(v2, verb_topic[v2] if not high else topic, a2, k % 3 == 1, by_noun)
        b.pair(s1, s2, high)
        if (a1, a2) in ((1, 2), (2, 3), (2, 2)) and len(sims) < 3:
            sims.append((s1, s2, ("categorical", "categorical", "verb_baseline")[len(sims)]))
    return World(
        basis=b.basis,
        documents=b.documents,
        triples=triples,
        adjective_records=records,
        lexicon=b.lexicon,
        dataset=b.dataset,
        verbs=[name for name, *_ in params.verbs],
        adjectives=[name for name, _, _ in params.adjectives] + modifiers,
        sims=sims,
        structure=b.structure,
        roles=b.roles,
    )


def _gs2011(smoke: bool) -> Params:
    # One verb with two senses and a landmark for each; occurrences fall off
    # Zipf-like with the verb's rank, so the growth of build time with occurrences shows.
    counts = (6, 3, 3) if smoke else (18, 9, 6)
    return Params(
        dim=120 if smoke else 2000,
        topics=4 if smoke else 20,
        general=20 if smoke else 200,
        nouns_per_topic=4 if smoke else 10,
        profile=12 if smoke else 50,
        profile_general=3 if smoke else 20,
        noun_docs=2 if smoke else 8,
        filler_docs=0,
        verbs=tuple(
            (name, 2, senses, count)
            for name, senses, count in zip(("draw", "sketch", "pull"), ((0, 1), (0,), (1,)), counts)
        ),
        landmarks={"draw": ("sketch", "pull")},
        bases_per_sense=2 if smoke else 8,
        annotators=3 if smoke else 5,
    )


def _ml2008(smoke: bool) -> Params:
    names = ("burn", "glow", "beam", "fade", "dim", "decline", "shoot", "fire", "grow")
    senses = ((0, 1), (2, 3), (4, 5), (0,), (1,), (2,), (3,), (4,), (5,))
    landmarks = {"burn": ("fade", "dim"), "glow": ("decline", "shoot"), "beam": ("fire", "grow")}
    if smoke:
        names, senses = names[:1] + names[3:5], senses[:1] + senses[3:5]
        landmarks = {"burn": ("fade", "dim")}
    return Params(
        dim=120 if smoke else 2000,
        topics=2 if smoke else 40,
        general=20 if smoke else 50,
        nouns_per_topic=4 if smoke else 8,
        profile=12 if smoke else 35,
        profile_general=3 if smoke else 5,
        noun_docs=2 if smoke else 6,
        filler_docs=0 if smoke else 25000,
        verbs=tuple((n, 1, s, 4 if smoke else 40) for n, s in zip(names, senses)),
        landmarks=landmarks,
        bases_per_sense=3 if smoke else 10,
        annotators=3 if smoke else 30,
    )


def _mixed(smoke: bool) -> Params:
    verbs = (
        ("sleep", 1, (0,), 6), ("wander", 1, (1,), 6),
        ("chase", 2, (0,), 6), ("follow", 2, (1,), 6),
        ("give", 3, (0,), 3), ("lend", 3, (1,), 3),
    )
    return Params(
        dim=60 if smoke else 200,
        topics=3 if smoke else 6,
        general=6 if smoke else 20,
        nouns_per_topic=4 if smoke else 8,
        profile=8 if smoke else 14,
        profile_general=2 if smoke else 3,
        noun_docs=1 if smoke else 3,
        filler_docs=0,
        verbs=verbs,
        adjectives=(("wild", 0, 6),) if smoke else (("wild", 0, 6), ("calm", 1, 6)),
        modifier_nouns=1 if smoke else 2,
        mixed_pairs=7 if smoke else 25,
        annotators=3 if smoke else 4,
    )


WORKLOADS = {
    "gs2011-transitive": (_gs2011, _same_arity_world),
    "ml2008-intransitive": (_ml2008, _same_arity_world),
    "mixed-arity": (_mixed, _mixed_world),
}


def make_world(workload: str, seed: int, smoke: bool = False) -> World:
    """The world of ``workload`` for ``seed``: same seed, same world."""
    params_for, build = WORKLOADS[workload]
    return build(params_for(smoke), random.Random(f"{workload}:{seed}"))
