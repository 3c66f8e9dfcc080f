"""Pregroup types, lexicons and the linear reduction of typed word sequences.

A type is a sequence of atoms ``base^z`` where the integer z counts adjoint
steps: 0 is the plain type, +1 the right adjoint (written ``n^r``), -1 the
left adjoint (``n^l``), and larger magnitudes iterate (``n^ll`` is z = -2).
Adjacent atoms ``x^z x^(z+1)`` cancel, and a word string is grammatical when
its types, written one after another, cancel down to the lone sentence atom.

Reduction here is the eager single pass: the string is scanned left to
right and an incoming atom cancels the top of a stack whenever it can.
The lexicons used in this package never need backtracking; richer grammars
with iterated adjoints may (a documented limitation).
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

from ._value import Value
from .errors import LexiconError


class AtomicType(Value):
    """One base symbol with an adjoint order, e.g. n, n^r, s^ll."""

    _fields = ("base", "adjoint_order")

    def __init__(self, base: str, adjoint_order: int = 0):
        if not base:
            raise ValueError("base symbol must be non-empty")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "adjoint_order", adjoint_order)

    def __str__(self) -> str:
        z = self.adjoint_order
        if z == 0:
            return self.base
        return self.base + "^" + ("r" * z if z > 0 else "l" * -z)


def left_adjoint(t: AtomicType) -> AtomicType:
    """One adjoint step to the left: n -> n^l, n^r -> n, s^l -> s^ll."""
    return AtomicType(t.base, t.adjoint_order - 1)


def right_adjoint(t: AtomicType) -> AtomicType:
    """One adjoint step to the right: n -> n^r, n^l -> n."""
    return AtomicType(t.base, t.adjoint_order + 1)


class PregroupType(Value):
    """Ordered sequence of atoms; the empty sequence is the unit."""

    _fields = ("atoms",)

    def __init__(self, atoms: Iterable[AtomicType] = ()):
        object.__setattr__(self, "atoms", tuple(atoms))

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.atoms) if self.atoms else "1"


_ATOM_RE = re.compile(r"^([^\s^]+)(?:\^([rl]+))?$")


def parse_atom(text: str) -> AtomicType:
    match = _ATOM_RE.match(text)
    if not match:
        raise LexiconError(f"malformed atom: {text!r}")
    base, marks = match.groups()
    z = 0
    for mark in marks or "":
        z += 1 if mark == "r" else -1
    return AtomicType(base, z)


def parse_type(text: str) -> PregroupType:
    """Parse a space-separated type string such as ``"n^r s n^l"``."""
    parts = text.split()
    if not parts:
        raise LexiconError("empty type string")
    return PregroupType(tuple(parse_atom(p) for p in parts))


# The basic types n and s, and the conventional compound types.  Nouns,
# transitive/intransitive verbs and adjectives follow the standard pregroup
# assignments; the ditransitive type is fixed here as the usual choice
# (three noun arguments).
NOUN = "n"
SENTENCE = "s"
TRANSITIVE_VERB = "n^r s n^l"
INTRANSITIVE_VERB = "n^r s"
ADJECTIVE = "n n^l"
DITRANSITIVE_VERB = "n^r s n^l n^l"


class Lexicon(Value):
    """Word -> set of pregroup type assignments.

    Looking up a word that has no assignment is a hard error: silently
    skipping unknown words would corrupt reductions downstream.
    """

    _fields = ("entries",)

    def __init__(self, entries: Mapping[str, Iterable[PregroupType]]):
        frozen: dict[str, tuple[PregroupType, ...]] = {}
        for word, types in entries.items():
            types = tuple(types)
            if not word or not types:
                raise LexiconError(f"word {word!r} needs at least one type")
            frozen[word] = types
        object.__setattr__(self, "entries", frozen)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str | PregroupType]]) -> "Lexicon":
        entries: dict[str, list[PregroupType]] = {}
        for word, typ in pairs:
            if isinstance(typ, str):
                typ = parse_type(typ)
            bucket = entries.setdefault(word, [])
            if typ not in bucket:
                bucket.append(typ)
        return cls({w: tuple(ts) for w, ts in entries.items()})

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def types_for(self, word: str) -> tuple[PregroupType, ...]:
        try:
            return self.entries[word]
        except KeyError:
            raise LexiconError(f"word {word!r} is not in the lexicon") from None

    def type_sequence(self, words: Sequence[str]) -> tuple[PregroupType, ...]:
        """The unique type of each word; ambiguous words are an error here."""
        out = []
        for word in words:
            types = self.types_for(word)
            if len(types) > 1:
                raise LexiconError(f"word {word!r} is ambiguous; resolve types explicitly")
            out.append(types[0])
        return tuple(out)


def standard_lexicon(
    *,
    nouns: Iterable[str] = (),
    transitive: Iterable[str] = (),
    intransitive: Iterable[str] = (),
    adjectives: Iterable[str] = (),
    ditransitive: Iterable[str] = (),
) -> Lexicon:
    """Build a lexicon from the five standard type assignments."""
    pairs: list[tuple[str, str]] = []
    pairs += [(w, NOUN) for w in nouns]
    pairs += [(w, TRANSITIVE_VERB) for w in transitive]
    pairs += [(w, INTRANSITIVE_VERB) for w in intransitive]
    pairs += [(w, ADJECTIVE) for w in adjectives]
    pairs += [(w, DITRANSITIVE_VERB) for w in ditransitive]
    return Lexicon.from_pairs(pairs)


def load_lexicon(path) -> Lexicon:
    """Read a ``word<TAB>type`` file; repeated words accumulate assignments."""
    from .vectorspace import open_text

    pairs: list[tuple[str, PregroupType]] = []
    with open_text(path, LexiconError) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].rstrip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                raise LexiconError(f"{path}:{lineno}: expected 'word<TAB>type'")
            try:
                typ = parse_type(parts[1])
            except LexiconError as exc:
                raise LexiconError(f"{path}:{lineno}: {exc}") from None
            pairs.append((parts[0], typ))
    return Lexicon.from_pairs(pairs)


def save_lexicon(path, lexicon: Lexicon) -> None:
    """Write ``load_lexicon``'s lines.  A word or type containing '#' is
    refused: ``load_lexicon`` cuts each line at its first '#'."""
    from .vectorspace import _write_lines

    pairs = [(w, str(t)) for w in sorted(lexicon.entries) for t in lexicon.entries[w]]
    for word, typ in pairs:
        if "#" in word or "#" in typ:
            raise ValueError(f"lexicon entry {word!r}: {typ!r} contains '#'")
    _write_lines(path, (f"{word}\t{typ}" for word, typ in pairs))


class ReductionResult(Value):
    """Outcome of reducing a typed string.

    ``atoms`` is the flattened atom sequence of the input, ``links`` the
    cancellation pairs (i, j) with i < j over that sequence, and
    ``residual`` the unlinked atoms in their original order.  Links made by
    the stack pass are always planar (never crossing).
    """

    _fields = ("atoms", "links", "residual")

    def __init__(self, atoms: tuple[AtomicType, ...], links: tuple[tuple[int, int], ...]):
        linked = set()
        for i, j in links:
            linked.add(i)
            linked.add(j)
        residual = PregroupType(tuple(a for pos, a in enumerate(atoms) if pos not in linked))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "residual", residual)


def cancels(x: AtomicType, y: AtomicType) -> bool:
    """True when the adjacent pair x y collapses: same base, y one adjoint right."""
    return x.base == y.base and y.adjoint_order == x.adjoint_order + 1


def reduce(types: Sequence[PregroupType]) -> ReductionResult:
    """Eagerly reduce a sequence of word types in one left-to-right pass.

    Each incoming atom either cancels the current stack top (recording a
    link) or is pushed.  Deterministic, no backtracking; non-sentences
    simply come out with a residual other than the sentence atom.
    """
    if not types:
        raise ValueError("cannot reduce an empty sequence of types")
    atoms: tuple[AtomicType, ...] = tuple(a for t in types for a in t.atoms)
    stack: list[tuple[int, AtomicType]] = []
    links: list[tuple[int, int]] = []
    for pos, atom in enumerate(atoms):
        if stack and cancels(stack[-1][1], atom):
            top_pos, _ = stack.pop()
            links.append((top_pos, pos))
        else:
            stack.append((pos, atom))
    return ReductionResult(atoms, tuple(links))


def is_sentence(result: ReductionResult) -> bool:
    """True iff the residual is exactly the single plain atom ``s``."""
    return result.residual.atoms == (AtomicType(SENTENCE),)
