"""Independent brute-force oracles shared by the unit and acceptance suites.

Everything here is deliberately naive (exhaustive search, definitional
loops), stays independent of the implementation paths it checks, and is
only ever used from tests.
"""

import itertools
import math
from functools import lru_cache

from gramsem.corpus import CountAccumulator
from gramsem.pregroup import (
    ADJECTIVE,
    DITRANSITIVE_VERB,
    INTRANSITIVE_VERB,
    NOUN,
    TRANSITIVE_VERB,
    AtomicType,
    cancels,
    parse_type,
)
from gramsem.vectorspace import SemTensor

# --- exhaustive pregroup cancellation ---------------------------------------


@lru_cache(maxsize=None)
def _reachable(seq: tuple[AtomicType, ...]) -> frozenset[tuple[AtomicType, ...]]:
    """All irreducible residuals reachable by cancelling adjacent pairs in
    any order (later adjacencies arise as inner pairs are removed)."""
    out = set()
    reducible = False
    for k in range(len(seq) - 1):
        if cancels(seq[k], seq[k + 1]):
            reducible = True
            out |= _reachable(seq[:k] + seq[k + 2 :])
    if not reducible:
        return frozenset([seq])
    return frozenset(out)


def reachable_residuals(types) -> frozenset[tuple[AtomicType, ...]]:
    return _reachable(tuple(a for t in types for a in t.atoms))


CATEGORY_TYPES = {
    "N": parse_type(NOUN),
    "T": parse_type(TRANSITIVE_VERB),
    "I": parse_type(INTRANSITIVE_VERB),
    "A": parse_type(ADJECTIVE),
    "D": parse_type(DITRANSITIVE_VERB),
}


def category_strings(max_len: int):
    """Every word-category string up to the given length."""
    for length in range(1, max_len + 1):
        yield from map("".join, itertools.product(CATEGORY_TYPES, repeat=length))


# --- definitional rank statistics --------------------------------------------


def oracle_ranks(values):
    """Average rank by definition: a value occupying sorted positions
    p+1 .. p+k receives their mean, independent of input order."""
    out = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(smaller + (equal + 1) / 2)
    return out


def oracle_spearman(xs, ys):
    rx, ry = oracle_ranks(xs), oracle_ranks(ys)
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


# --- Kronecker sums by their definition ----------------------------------------


def oracle_kronecker(vectors, space):
    """One Kronecker product entry by entry, each weight its factors'
    product taken left to right, through the validating constructor."""
    entries = {}
    for combo in itertools.product(*(v.entries.items() for v in vectors)):
        w = combo[0][1]
        for _, factor in combo[1:]:
            w = w * factor
        entries[tuple(i for i, _ in combo)] = w
    return SemTensor(space, len(vectors), entries)


def oracle_kronecker_sum(order, occurrences, space):
    """What the verb/adjective builders define: the running sum plus one
    product per occurrence (an order-1 occurrence is a bare vector), each
    step rebuilt through the validating constructor as ``tensor_add`` was."""
    total = SemTensor(space, order, {})
    for occurrence in occurrences:
        vectors = (occurrence,) if order == 1 else occurrence
        merged = dict(total.entries)
        for key, w in oracle_kronecker(vectors, space).entries.items():
            merged[key] = merged.get(key, 0.0) + w
        total = SemTensor(space, order, merged)
    return total


# --- a verb tensor applied to its arguments, by definition -------------------------


def oracle_contract(verb, *args):
    """Every combination of argument entries, each argument in its own
    order: the tensor entry at their indices times their weights, left to
    right, through the validating constructor."""
    entries = {}
    for combo in itertools.product(*(v.entries.items() for v in args)):
        key = tuple(i for i, _ in combo)
        if key in verb.entries:
            w = verb.entries[key]
            for _, a in combo:
                w = w * a
            entries[key] = w
    return SemTensor(verb.space, len(args), entries)


# --- window counting by its definition ------------------------------------------


def oracle_count_cooccurrence(documents, targets, basis, window):
    """Window co-occurrence counts by definition, one neighbour at a time,
    each looked up in the basis on its own."""
    target_set = set(targets)
    acc = CountAccumulator(basis)
    for tokens in documents:
        acc.doc_count += 1
        seen = set()
        for position, token in enumerate(tokens):
            if token in basis:
                seen.add(basis.index(token))
            if token not in target_set:
                continue
            lo = max(0, position - window)
            hi = min(len(tokens), position + window + 1)
            for neighbour in range(lo, hi):
                if neighbour == position:
                    continue
                context = tokens[neighbour]
                if context in basis:
                    acc.bump(token, basis.index(context))
        for i in seen:
            acc.doc_frequency[i] = acc.doc_frequency.get(i, 0) + 1
    return acc
