"""Exception types raised across the package."""


class HirankError(Exception):
    """Base class for all hirank errors."""


# --- label hierarchy / relevance ---------------------------------------------

class EmptyInputError(HirankError, ValueError):
    """A hierarchy document contained no records."""


class MalformedRecordError(HirankError, ValueError):
    """A record did not match the expected tab-separated layout."""


class RaggedDepthError(HirankError, ValueError):
    """Label paths in one hierarchy have unequal lengths."""


class DuplicateInstanceError(HirankError, ValueError):
    """The same instance id appeared in more than one record."""


class NonTreeParentageError(HirankError, ValueError):
    """A node id appears under two different parents."""


class TooFewLeavesError(HirankError, ValueError):
    """The hierarchy has too few distinct leaf labels for the operation."""


class UnknownInstanceError(HirankError, KeyError):
    """An instance id is not present in the hierarchy."""

    def __str__(self) -> str:
        return f"unknown instance id {self.args[0]!r}"


class QueryInCandidatesError(HirankError, ValueError):
    """The query id was also listed as a retrieval candidate."""


class EmptyLevelDivisionError(HirankError, ValueError):
    """A weighted relevance profile references an empty positive set."""


# --- metrics ------------------------------------------------------------------

class NoPositivesError(HirankError, ValueError):
    """The ranking has no positive candidate for the requested metric."""


class NegativeQueryError(HirankError, ValueError):
    """The graded rank is only defined for positive candidates."""


class IndexOutOfRangeError(HirankError, IndexError):
    """A candidate index or cutoff lies outside the ranking."""


class AllQueriesEmptyError(HirankError, ValueError):
    """Every query in the dataset has zero positives."""


# --- losses -------------------------------------------------------------------

class UnknownClassError(HirankError, ValueError):
    """A class index does not match any proxy in the bank."""


class ZeroVectorError(HirankError, ValueError):
    """An embedding row has zero norm and cannot be normalized."""


# --- training -----------------------------------------------------------------

class InsufficientClassesError(HirankError, ValueError):
    """The dataset has fewer fine classes than one batch requires."""


class NonFiniteLossError(HirankError, ArithmeticError):
    """A training step produced a non-finite loss value."""
