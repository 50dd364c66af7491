"""Exception types shared across the package.

Everything deriving from :class:`ScorekitError` is a contract violation in
inputs or configuration (bad files, bad columns, impossible parameters) and
maps to CLI exit code 2. Anything else escaping is an internal error (exit 1).
"""


class ScorekitError(Exception):
    """Base for input/contract errors."""


class MissingColumn(ScorekitError):
    """A declared column is absent from the data header."""


class BadTarget(ScorekitError):
    """Target column contains values outside {0, 1}."""


class EmptyFile(ScorekitError):
    """Input file has no data rows."""


class UnknownColumn(ScorekitError):
    """An operation names a column the dataset does not have."""


class EmptyPartition(ScorekitError):
    """A temporal split produced an empty part."""


class OneClassOnly(ScorekitError):
    """A discrimination metric or a model's train part needs both classes
    present."""


class SingularHessian(ScorekitError):
    """Logistic solve failed even with the ridge stabilizer."""


class NonFinite(ScorekitError):
    """Scores handed to a metric contain NaN or infinite values."""


class MalformedCsv(ScorekitError):
    """A CSV row has the wrong cell count, a cell is longer than csv's field
    limit, or a date cell does not parse to a fixed calendar day."""


class NoMissingBin(ScorekitError):
    """A WOE-binned column has missing values, but its bins were fitted
    on data without any, so there is no missing bin to put them in."""


class BadParameter(ScorekitError, ValueError):
    """A config key the defaults do not have, a config value of the wrong
    shape, or a parameter outside its range. Also a ValueError, which is
    what such a parameter raised before it was a contract error."""


class BadModel(ScorekitError):
    """A model file that does not parse, or holds what `train` never writes."""
