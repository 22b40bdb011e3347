"""Exception types shared across the package."""


class ElastimdpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ElastimdpError):
    """A configuration value is out of range or inconsistent."""


class InstantiationError(ElastimdpError):
    """A decision model could not be built from the given inputs."""


class NoDataError(ElastimdpError):
    """A log store or measurement history has no usable data."""


class SolverError(ElastimdpError):
    """A model is outside what a solver routine accepts (oracle scale)."""


class QueryParseError(ElastimdpError):
    """A probability query string failed to parse.

    `position` is the character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DataFormatError(ElastimdpError):
    """A CSV input file contained malformed rows."""


class QueryEvaluationError(ElastimdpError):
    """A query predicate referenced a metric the model does not carry."""
