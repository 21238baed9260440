"""Exception types shared across the package.

Every error carries enough position/context information to be actionable
from the command line; the CLI maps these to exit code 1 (usage/data errors)
versus 2 (internal failures).
"""


class VulgraphError(Exception):
    """Base class for all package-specific errors."""


class SourceError(VulgraphError):
    """A problem in method source text, with 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col


class IllegalCharacter(SourceError):
    def __init__(self, char: str, line: int, col: int):
        super().__init__(f"illegal character {char!r}", line, col)
        self.char = char


class UnterminatedString(SourceError):
    def __init__(self, line: int, col: int):
        super().__init__("unterminated string literal", line, col)


class ParseError(SourceError):
    pass


class EmptyMethod(VulgraphError):
    """Raised when a method body contains zero statements."""


class ShapeMismatch(VulgraphError):
    """Tensor operands have incompatible shapes for the requested op."""


class EmptyTree(VulgraphError):
    """Tree encoding was requested for an empty syntax tree."""


class CheckpointError(VulgraphError):
    """Malformed or version-incompatible checkpoint file."""


class VocabularyError(VulgraphError):
    """Vectorization requested against an incompatible vocabulary."""


class EmptySplit(VulgraphError):
    """Training was requested on an empty train or tuning split."""


class SingleClassTuningSet(VulgraphError):
    """Threshold fitting needs both classes in the tuning split."""


class MaskMisaligned(VulgraphError):
    """Edge mask length does not match the graph's edge count."""


class KOutOfRange(VulgraphError):
    """Ranking cutoff k exceeds the list length or is not positive."""


class EmptyClass(VulgraphError):
    """AUC needs at least one score in each class."""


class LengthMismatch(VulgraphError):
    """Paired lists differ in length."""


class MissingTruth(VulgraphError):
    """No fix ground truth found for a method id."""

    def __init__(self, method_id: str):
        super().__init__(f"no ground truth for method {method_id!r}")
        self.method_id = method_id


class CorpusError(VulgraphError):
    """Malformed corpus entry or inconsistent corpus-level request."""


class SchemaError(CorpusError):
    """Corpus line that is not valid JSON or violates the entry schema."""


class DuplicateId(CorpusError):
    """Two corpus entries share a method id."""


class InsufficientNegatives(CorpusError):
    """Not enough non-vulnerable entries to honor the split ratio."""


class ConfigError(VulgraphError):
    """Invalid run configuration value or file."""
