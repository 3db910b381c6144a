"""Exception types raised across the package."""


class HirankError(Exception):
    """Base class for all hirank errors.

    `path` names the input file an error was found in; when set, it leads
    the message.
    """

    path = None

    def __str__(self) -> str:
        return self._located(super().__str__())

    def _located(self, message: str) -> str:
        return message if self.path is None else f"{self.path}: {message}"


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
        return self._located(f"unknown instance id {self.args[0]!r}")


class QueryInCandidatesError(HirankError, ValueError):
    """The query id was also listed as a retrieval candidate."""

    def __str__(self) -> str:
        return self._located(f"query {self.args[0]!r} is among its own candidates")


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
    """A loss, gradient or row norm is not finite: training has diverged."""
