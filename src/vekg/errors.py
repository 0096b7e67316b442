"""Exception hierarchy shared across the engine."""


class VekgError(Exception):
    """Base class for all engine errors."""


# --- ingest ---

class MalformedRecord(VekgError):
    """A stream line is not syntactically parseable."""


class SchemaViolation(VekgError):
    """A parsed record violates a field invariant (missing field, bad value)."""


class NonMonotonicTime(VekgError):
    """Frame timestamp or index failed strict monotonicity."""


class SourceUnavailable(VekgError):
    """The stream source cannot be opened."""


# --- geometry ---

class CoincidentCentroids(VekgError):
    """Direction is undefined for boxes whose centroids coincide."""


class ZeroLengthSegment(VekgError):
    """Angle is undefined for a zero-length segment."""


class InvalidRegion(VekgError):
    """Polygon region is degenerate or self-intersecting."""


# --- graph / tag ---

class UnknownRelation(VekgError):
    """A relation name is not in the materialized vocabulary."""


class UnknownNode(VekgError):
    """A track id is not a node of the aggregated graph."""


# --- windowing / temporal ---

class NonPositiveLength(VekgError):
    """Window length must be > 0 milliseconds."""


class GraphOutsideWindow(VekgError):
    """A window holds a graph whose timestamp is outside [start, end)."""


class SeriesTooShort(VekgError):
    """Change-point detection needs at least two samples."""


# --- rules / synth ---

class InvalidRuleConfig(VekgError):
    """A declarative rule config is incomplete or inconsistent."""


class InvalidScenario(VekgError):
    """A synthetic scenario script is inconsistent."""


class InvalidTruth(VekgError):
    """A ground-truth file line is not a well-formed event."""
