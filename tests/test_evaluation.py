"""Unit tests for models, Spearman correlation and the experiment loop."""

import itertools
import math

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_ranks, oracle_spearman
from gramsem.benchmark import two_sense_benchmark
from gramsem.composition import LexicalSemantics
from gramsem.errors import CompositionError, DegenerateDataError, UngrammaticalError
from gramsem.evaluation import (
    HIGH,
    LOW,
    MODELS,
    SentencePair,
    _word_roles,
    average_ranks,
    high_low_means,
    model_similarity,
    read_dataset,
    run_experiment,
    save_dataset,
    spearman_rho,
)
from gramsem.pregroup import Lexicon, parse_type, standard_lexicon
from gramsem.vectorspace import BasisRegistry, SemTensor, WeightedVector, cosine


# --- sentence pairs -----------------------------------------------------------


def test_sentence_pair_validation():
    SentencePair("p1", ("a",), ("b",), 7.0, HIGH)
    with pytest.raises(ValueError):
        SentencePair("p1", (), ("b",))
    with pytest.raises(ValueError):
        SentencePair("p1", ("a",), ("b",), 0.5)
    with pytest.raises(ValueError):
        SentencePair("p1", ("a",), ("b",), 3.0, "MEDIUM")


# --- spearman ------------------------------------------------------------------


def test_spearman_examples():
    assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    xs, ys = [1, 2, 2, 4], [1, 3, 2, 4]
    assert spearman_rho(xs, ys) == pytest.approx(oracle_spearman(xs, ys), rel=1e-12)
    assert spearman_rho(xs, ys) == pytest.approx(3 / math.sqrt(10), rel=1e-12)


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman_rho([1], [1])
    with pytest.raises(DegenerateDataError):
        spearman_rho([2, 2, 2], [1, 2, 3])
    with pytest.raises(DegenerateDataError):
        spearman_rho([1, 2, 3], [5, 5, 5])


def test_average_ranks_matches_oracle_exhaustively():
    for n in range(1, 5):
        for values in itertools.product(range(1, n + 1), repeat=n):
            assert average_ranks(values) == oracle_ranks(values)


def test_spearman_matches_scipy_on_ties():
    cases = [
        ([1, 2, 2, 4], [1, 3, 2, 4]),
        ([1, 1, 2, 2], [1, 2, 1, 2]),
        ([3, 1, 4, 1, 5], [2, 7, 1, 8, 2]),
    ]
    for xs, ys in cases:
        expected = float(scipy.stats.spearmanr(xs, ys).statistic)
        assert spearman_rho(xs, ys) == pytest.approx(expected, rel=1e-12)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=12).filter(
        lambda xs: len(set(xs)) > 1
    ),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=-20, max_value=20),
)
def test_spearman_monotone_invariance(xs, a, b):
    ys = list(range(len(xs)))
    base = spearman_rho(xs, ys)
    assert spearman_rho([a * x + b for x in xs], ys) == pytest.approx(base, abs=1e-12)
    assert spearman_rho([math.exp(x / 10) for x in xs], ys) == pytest.approx(
        base, abs=1e-12
    )


def test_spearman_self_and_reverse():
    xs = [0.5, 2.0, 1.0, 9.0]
    assert spearman_rho(xs, xs) == pytest.approx(1.0)
    assert spearman_rho(xs, [-x for x in xs]) == pytest.approx(-1.0)


# --- tag means --------------------------------------------------------------------


def _pair(pair_id, tag, rating=4.0):
    return SentencePair(pair_id, ("a", "v", "b"), ("a", "w", "b"), rating, tag)


def test_high_low_means():
    pairs = [_pair("1", HIGH), _pair("2", LOW), _pair("3", HIGH)]
    assert high_low_means(pairs, [0.5, 0.5, 0.5]) == (0.5, 0.5)
    assert high_low_means(pairs, [0.9, 0.1, 0.7]) == (
        pytest.approx(0.8),
        pytest.approx(0.1),
    )
    single = [_pair("1", HIGH), _pair("2", LOW)]
    assert high_low_means(single, [0.42, 0.0])[0] == 0.42
    with pytest.raises(DegenerateDataError):
        high_low_means([_pair("1", HIGH)], [1.0])
    with pytest.raises(ValueError):
        high_low_means([_pair("1", None)], [1.0])


# --- model similarities --------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    return two_sense_benchmark()


def test_identical_sentences_score_one(world):
    sentence = ("knight", "charge", "enemy")
    pair = SentencePair("x", sentence, sentence)
    for model in ("categorical", "add", "multiply", "weighted_add", "verb_baseline"):
        assert model_similarity(pair, model, world.lex, world.grammar) == 1.0


def test_verb_baseline_ignores_nouns(world):
    shared = SentencePair("x", ("knight", "charge", "enemy"), ("vendor", "charge", "client"))
    assert model_similarity(shared, "verb_baseline", world.lex, world.grammar) == 1.0


def test_categorical_zeroed_noun_gives_zero(world):
    space = world.space
    lex = LexicalSemantics(
        space,
        {**world.lex.vectors, "ghost": WeightedVector(space, {})},
        world.lex.tensors,
    )
    grammar = standard_lexicon(
        nouns=[*sorted(world.lex.vectors), "ghost"], transitive=["charge", "storm", "bill"]
    )
    pair = SentencePair("x", ("knight", "charge", "enemy"), ("ghost", "charge", "enemy"))
    assert model_similarity(pair, "categorical", lex, grammar) == 0.0


def test_model_similarity_symmetry(world):
    pair = SentencePair("x", ("knight", "charge", "enemy"), ("army", "storm", "rival"))
    flipped = SentencePair("x", ("army", "storm", "rival"), ("knight", "charge", "enemy"))
    for model in ("categorical", "add", "multiply", "weighted_add", "verb_baseline"):
        assert model_similarity(pair, model, world.lex, world.grammar) == model_similarity(
            flipped, model, world.lex, world.grammar
        )


def test_categorical_mixed_orders_align(world):
    grammar = standard_lexicon(
        nouns=sorted(world.lex.vectors),
        transitive=["charge", "storm", "bill"],
        intransitive=["march"],
    )
    tensors = dict(world.lex.tensors)
    tensors["march"] = SemTensor(world.space, 1, {(i,): 1.0 for i in range(len(world.space))})
    lex = LexicalSemantics(world.space, world.lex.vectors, tensors)
    pair = SentencePair("x", ("knight", "march"), ("knight", "charge", "enemy"))
    value = model_similarity(pair, "categorical", lex, grammar)
    assert -1.0 <= value <= 1.0


def test_unknown_model_and_folding():
    b = two_sense_benchmark()
    pair = SentencePair("x", ("knight", "charge", "enemy"), ("knight", "storm", "enemy"))
    with pytest.raises(ValueError):
        model_similarity(pair, "quantum", b.lex, b.grammar)


def test_fold_weights_change_weighted_add_scores():
    # at the default 0.5/0.5 scaling is exact in binary floating point, so
    # weighted_add equals add; other weights must reach the score
    b = two_sense_benchmark()

    def scores(model, **weights):
        return [model_similarity(pair, model, b.lex, b.grammar, **weights) for pair in b.dataset]

    assert scores("weighted_add") == scores("add")
    assert scores("weighted_add", alpha=0.25, beta=2.0) != scores("add")


def test_multiply_equals_categorical_on_intransitive_when_reps_agree():
    space = BasisRegistry("s", ("x", "y", "z"))
    grammar = standard_lexicon(nouns=["dog", "cat"], intransitive=["run", "job"])
    run_weights = {0: 2.0, 1: 1.0}
    job_weights = {1: 3.0, 2: 1.0}
    vectors = {
        "dog": WeightedVector(space, {0: 1.0, 1: 4.0}),
        "cat": WeightedVector(space, {0: 2.0, 1: 1.0, 2: 5.0}),
        "run": WeightedVector(space, run_weights),
        "job": WeightedVector(space, job_weights),
    }
    tensors = {
        "run": SemTensor(space, 1, {(i,): w for i, w in run_weights.items()}),
        "job": SemTensor(space, 1, {(i,): w for i, w in job_weights.items()}),
    }
    lex = LexicalSemantics(space, vectors, tensors)
    pair = SentencePair("x", ("dog", "run"), ("cat", "job"))
    categorical = model_similarity(pair, "categorical", lex, grammar)
    multiply = model_similarity(pair, "multiply", lex, grammar)
    assert multiply == categorical


# --- experiment loop --------------------------------------------------------------------


def test_run_experiment_reports(world):
    report = run_experiment(
        world.dataset, ["categorical", "multiply", "verb_baseline"], world.lex, world.grammar
    )
    categorical = report.scores["categorical"]
    assert categorical.rho == pytest.approx(1.0)
    assert categorical.mean_high > categorical.mean_low
    assert report.scores["multiply"].rho < categorical.rho
    assert abs(report.scores["verb_baseline"].rho) <= 0.1
    assert "categorical" in report.table()
    assert report.tsv_lines()[0].startswith("model\t")


def test_run_experiment_perfect_agreement_is_rho_one(world):
    rows = [
        SentencePair("p1", ("knight", "charge", "enemy"), ("knight", "storm", "enemy"), 7.0, HIGH),
        SentencePair("p2", ("army", "charge", "enemy"), ("army", "bill", "enemy"), 4.0, LOW),
        SentencePair("p3", ("knight", "charge", "fortress"), ("knight", "bill", "fortress"), 1.0, LOW),
    ]
    report = run_experiment(rows, ["multiply"], world.lex, world.grammar)
    assert report.scores["multiply"].rho == pytest.approx(1.0)


def test_run_experiment_degenerate_baseline(world):
    rows = [
        SentencePair("p1", ("knight", "charge", "enemy"), ("army", "charge", "rival"), 7.0, HIGH),
        SentencePair("p2", ("bull", "charge", "enemy"), ("mob", "charge", "rival"), 1.0, LOW),
    ]
    with pytest.raises(DegenerateDataError):
        run_experiment(rows, ["verb_baseline"], world.lex, world.grammar)


def test_run_experiment_annotator_modes(world):
    def rows(ratings_a, ratings_b):
        out = []
        for r in ratings_a:
            out.append(SentencePair("p1", ("knight", "charge", "enemy"), ("knight", "storm", "enemy"), r, HIGH))
        for r in ratings_b:
            out.append(SentencePair("p2", ("knight", "charge", "enemy"), ("knight", "bill", "enemy"), r, LOW))
        out.append(SentencePair("p3", ("army", "charge", "rival"), ("army", "bill", "rival"), 2.0, LOW))
        return out

    # rho is taken against each pair's mean rating: 6.0, 2.0 and 2.0
    dataset = rows([7.0, 5.0], [1.0, 3.0])
    mean_report = run_experiment(dataset, ["categorical"], world.lex, world.grammar)
    assert mean_report.scores["categorical"].rho == pytest.approx(1.0)


def test_run_experiment_validation(world):
    with pytest.raises(ValueError):
        run_experiment([], ["categorical"], world.lex, world.grammar)
    conflicting = [
        SentencePair("p1", ("knight", "charge", "enemy"), ("knight", "storm", "enemy"), 7.0, HIGH),
        SentencePair("p1", ("knight", "charge", "enemy"), ("knight", "bill", "enemy"), 6.0, HIGH),
    ]
    with pytest.raises(ValueError):
        run_experiment(conflicting, ["categorical"], world.lex, world.grammar)
    unrated = [
        SentencePair("p1", ("knight", "charge", "enemy"), ("knight", "storm", "enemy"), None, HIGH)
    ]
    with pytest.raises(ValueError):
        run_experiment(unrated, ["categorical"], world.lex, world.grammar)


def test_dataset_file_round_trip(tmp_path, world):
    path = tmp_path / "dataset.tsv"
    save_dataset(path, world.dataset)
    assert read_dataset(path) == world.dataset
    path.write_text("id\tone sentence\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_dataset(path)


def test_save_dataset_refuses_a_pair_id_starting_with_hash(tmp_path):
    # read_dataset skips a line starting with '#' as a comment, so the pair would be lost
    pairs = [SentencePair("#1", ("a",), ("b",)), SentencePair("p2", ("a",), ("c",))]
    path = tmp_path / "dataset.tsv"
    with pytest.raises(ValueError, match="pair id '#1' starts with '#'"):
        save_dataset(path, pairs)
    assert list(tmp_path.iterdir()) == []
    kept = [SentencePair("p#1", ("a",), ("b",)), pairs[1]]
    save_dataset(path, kept)
    assert read_dataset(path) == kept


# --- word roles follow the reduction -------------------------------------------------


def test_ambiguous_verb_is_found_by_the_reduction(world):
    # 'charge' also listed as a noun, before its verb type: every model must
    # still take it as the verb, as the categorical model does
    entries = dict(world.grammar.entries)
    entries["charge"] = (parse_type("n"), *entries["charge"])
    ambiguous = Lexicon(entries)
    expected = run_experiment(world.dataset, MODELS, world.lex, world.grammar)
    report = run_experiment(world.dataset, MODELS, world.lex, ambiguous)
    assert report.scores == expected.scores


def test_noun_modifier_keeps_its_noun_role(world):
    grammar = Lexicon({**world.grammar.entries, "stone": (parse_type("n"), parse_type("n n^l"))})
    roles = _word_roles(("stone", "knight", "charge", "enemy"), grammar)
    assert roles == [("stone", "noun"), ("knight", "noun"), ("charge", "verb"), ("enemy", "noun")]


@pytest.mark.parametrize("model", MODELS)
def test_every_model_rejects_a_string_that_does_not_reduce(world, model):
    pair = SentencePair("x", ("charge", "knight", "enemy"), ("knight", "storm", "enemy"))
    with pytest.raises(UngrammaticalError):
        model_similarity(pair, model, world.lex, world.grammar)


@pytest.mark.parametrize("model", MODELS)
def test_every_model_rejects_a_shape_the_composer_rejects(model):
    # 'x y' cancels on its own beside 'dogs sleep', so the string reduces to
    # [s], but x and y fill no slot of the verb: no model may score it
    space = BasisRegistry("xy", ("a", "b"))
    grammar = Lexicon({w: (parse_type(t),) for w, t in
                       {"x": "n", "y": "n^r", "dogs": "n", "cats": "n", "sleep": "n^r s"}.items()})
    vectors = {w: WeightedVector(space, {0: 1.0, 1: float(k)}) for k, w in
               enumerate(("x", "y", "dogs", "cats", "sleep"), 1)}
    lex = LexicalSemantics(space, vectors, {"sleep": SemTensor(space, 1, {(0,): 2.0, (1,): 1.0})})
    pair = SentencePair("x", ("x", "y", "dogs", "sleep"), ("cats", "sleep"))
    with pytest.raises(CompositionError, match="unsupported"):
        model_similarity(pair, model, lex, grammar)


def test_word_roles_take_the_verb_from_the_slot_plan():
    # 'run' is listed as a noun first: its role still follows the parse,
    # in which it is the verb, and 'dogs run' as a noun phrase has no verb
    grammar = Lexicon({"dogs": (parse_type("n"), parse_type("n n^l")),
                       "run": (parse_type("n"), parse_type("n^r s"))})
    assert _word_roles(("dogs", "run"), grammar) == [("dogs", "noun"), ("run", "verb")]
    assert _word_roles(("run",), grammar) == [("run", "noun")]


# --- one memo per run ------------------------------------------------------------------

MEMO_SPACE = BasisRegistry("memo", ("a", "b", "c"))
MEMO_GRAMMAR = standard_lexicon(
    nouns=["dogs", "cats", "mice"], transitive=["chase", "bite"], intransitive=["run", "nap"]
)
MEMO_SENTENCES = [
    ("dogs", "run"),
    ("cats", "nap"),
    ("dogs", "chase", "cats"),
    ("mice", "bite", "dogs"),
    ("cats", "chase", "mice"),
]
_weights = st.lists(st.integers(0, 3).map(float), min_size=3, max_size=3)


@st.composite
def memo_worlds(draw):
    """Every word has a vector; chase/bite have order-2 tensors, run an
    order-1 tensor and nap none, so each folding mode meets each case."""
    vectors = {
        word: WeightedVector(MEMO_SPACE, dict(enumerate(draw(_weights))))
        for word in MEMO_GRAMMAR.entries
    }
    tensors = {"run": SemTensor(MEMO_SPACE, 1, {(i,): w for i, w in enumerate(draw(_weights))})}
    for verb in ("chase", "bite"):
        grid = draw(st.lists(st.integers(0, 2).map(float), min_size=9, max_size=9))
        tensors[verb] = SemTensor(MEMO_SPACE, 2, {divmod(k, 3): w for k, w in enumerate(grid)})
    return LexicalSemantics(MEMO_SPACE, vectors, tensors)


def _outcome(call):
    try:
        return call()
    except (CompositionError, UngrammaticalError) as exc:
        return type(exc), str(exc)


MEMO_OPTIONS = list(itertools.product(MODELS, ((0.5, 0.5), (0.25, 2.0))))


@settings(max_examples=60, deadline=None)
@given(
    lex=memo_worlds(),
    pairs=st.lists(
        st.tuples(st.sampled_from(MEMO_SENTENCES), st.sampled_from(MEMO_SENTENCES)),
        min_size=1,
        max_size=6,
    ),
    options=st.permutations(MEMO_OPTIONS),
)
def test_memo_scores_equal_fresh_scores(lex, pairs, options):
    # a dataset with repeated sentences and verbs, scored under every model
    # and weighting, in any order, all through one memo: a key that left out
    # an option would hand back a value computed under another
    memo = {}
    for model, (alpha, beta) in options:
        kwargs = dict(alpha=alpha, beta=beta)
        for s1, s2 in pairs:
            pair = SentencePair("x", s1, s2)
            fresh = _outcome(lambda: model_similarity(pair, model, lex, MEMO_GRAMMAR, **kwargs))
            shared = _outcome(
                lambda: model_similarity(pair, model, lex, MEMO_GRAMMAR, **kwargs, memo=memo)
            )
            assert shared == fresh


def test_memo_serves_one_semantics_and_grammar(world):
    pair = SentencePair("x", ("knight", "charge", "enemy"), ("knight", "storm", "enemy"))
    memo = {}
    model_similarity(pair, "add", world.lex, world.grammar, memo=memo)
    other = LexicalSemantics(world.space, world.lex.vectors, world.lex.tensors)
    with pytest.raises(ValueError, match="memo"):
        model_similarity(pair, "add", other, world.grammar, memo=memo)
    with pytest.raises(ValueError, match="memo"):
        model_similarity(pair, "add", world.lex, Lexicon(world.grammar.entries), memo=memo)


def test_verb_baseline_scores_each_ordered_verb_pair_once(world, monkeypatch):
    import gramsem.evaluation as evaluation

    calls = []

    def counted(a, b):
        calls.append((a, b))
        return cosine(a, b)

    monkeypatch.setattr(evaluation, "cosine", counted)
    rows = [
        *world.dataset,
        SentencePair("z1", ("knight", "storm", "enemy"), ("army", "charge", "rival"), 4.0, HIGH),
        SentencePair("z2", ("mob", "charge", "enemy"), ("army", "charge", "rival"), 5.0, HIGH),
        SentencePair("z3", ("army", "storm", "rival"), ("knight", "charge", "enemy"), 3.0, LOW),
    ]
    verb_pairs = {(row.sentence_1[1], row.sentence_2[1]) for row in rows}
    assert len(verb_pairs) == 4 and len(rows) == 51
    run_experiment(rows, ["verb_baseline"], world.lex, world.grammar)
    assert len(calls) == len(verb_pairs)
