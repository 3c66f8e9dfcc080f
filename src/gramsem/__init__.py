"""Grammar-driven tensor composition of distributional word meanings.

Word vectors live in a sparse basis space; relational words (verbs,
adjectives) carry weight tensors built as Kronecker sums over their corpus
occurrences.  Pregroup type reductions decide which contractions to apply,
and the resulting sentence vectors are compared by cosine, which the
evaluation harness correlates against human similarity ratings.
"""

from .composition import (
    LexicalSemantics,
    SentenceMeaning,
    SentenceSpace,
    align_orders,
    compose_adjective,
    compose_sentence,
    compose_transitive,
    contract,
    embed_to_ditransitive,
    embed_to_transitive,
    load_semantics,
    truth_meaning,
    truth_theoretic_verb,
    truth_value,
)
from .corpus import (
    CountAccumulator,
    TripleRecord,
    build_adjective_tensor,
    build_ditransitive_tensor,
    build_intransitive_tensor,
    build_verb_tensor,
    count_cooccurrence,
    count_properties,
    raw_vectors,
    tfidf,
)
from .errors import (
    CompositionError,
    DatasetError,
    DegenerateDataError,
    FileFormatError,
    GramsemError,
    LexiconError,
    SpaceMismatchError,
    UngrammaticalError,
    UnknownLabelError,
)
from .evaluation import (
    ExperimentReport,
    SentencePair,
    high_low_means,
    model_similarity,
    run_experiment,
    spearman_rho,
)
from .pregroup import (
    AtomicType,
    Lexicon,
    PregroupType,
    ReductionResult,
    is_sentence,
    left_adjoint,
    parse_type,
    reduce,
    right_adjoint,
    standard_lexicon,
)
from .vectorspace import (
    BasisRegistry,
    SemTensor,
    WeightedVector,
    add,
    cosine,
    inner,
    kronecker,
    norm,
    pointwise_mul,
    scale,
)

__version__ = "0.1.0"
