"""Exception types shared across the package."""


class GramsemError(Exception):
    """Base class for all errors raised by gramsem."""


class SpaceMismatchError(GramsemError):
    """Operands belong to different basis spaces (or tensor orders differ)."""


class LexiconError(GramsemError):
    """A word is missing from the grammar lexicon or a type string is malformed."""


class CompositionError(GramsemError):
    """Sentence composition failed (bad pattern, missing or mismatched semantics)."""


class UngrammaticalError(CompositionError):
    """The word sequence does not reduce to a sentence or noun phrase."""


class DegenerateDataError(GramsemError):
    """A statistic is undefined on the given data (e.g. constant score lists)."""


class DatasetError(GramsemError, ValueError):
    """A dataset as a whole cannot be scored (no pairs, no rating, one tag class ...)."""


class FileFormatError(GramsemError, ValueError):
    """A malformed input file; the message starts with ``path:line``."""


class UnknownLabelError(FileFormatError, KeyError):
    """A file row names a basis label its space lacks."""

    __str__ = BaseException.__str__  # KeyError's would quote the message
