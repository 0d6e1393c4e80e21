"""Exception types shared across the package."""


class TopolocError(Exception):
    """Base class for all package errors."""


class InputError(TopolocError):
    """Bad user input: missing files, malformed configs, invalid arguments."""


# geometry
class NonPositiveDepth(TopolocError):
    pass


class InvalidDepth(TopolocError):
    pass


# topomap
class DimensionMismatch(TopolocError):
    pass


class EmptyMap(TopolocError):
    pass


class FormatVersionMismatch(InputError):
    pass


class ChecksumMismatch(InputError):
    pass


class ResourceExhausted(TopolocError):
    """The system refused a file mapping (too many open files, no memory)."""


# mapgen
class EmptyCloud(TopolocError):
    pass


class TooFewMatches(TopolocError):
    pass


class NoConsensus(TopolocError):
    pass


class DegenerateConfiguration(TopolocError):
    pass


class NoConvergence(TopolocError):
    pass


class MissingOdometry(TopolocError):
    pass


# matching
class AllPointsDropped(TopolocError):
    pass


class EmptyInput(TopolocError):
    pass


class NoVisibleLandmarks(TopolocError):
    pass


class MatcherFailure(TopolocError):
    pass


# ieskf
class NonFiniteInput(TopolocError):
    pass


class NonPositiveDt(TopolocError):
    pass


class PointBehindCamera(TopolocError):
    pass


class SingularNormalMatrix(TopolocError):
    pass


class NoMeasurements(TopolocError):
    pass


class InsufficientStationaryData(TopolocError):
    pass


# sim
class GenerationError(TopolocError):
    pass


# evaluate
class NoTimestampOverlap(InputError):
    pass
