"""Exception hierarchy shared across the package, and the JSON document
reader that turns a malformed document into a DataError."""

import json


class PatternConvError(Exception):
    """Base class for all package errors."""


class ConfigError(PatternConvError):
    """Invalid configuration or usage (CLI exit code 1)."""


class DataError(PatternConvError):
    """Malformed or invariant-violating input data (CLI exit code 2)."""


class NumericalError(PatternConvError):
    """Non-finite loss or other numerical failure (CLI exit code 3)."""


def json_object(text: str, what: str) -> dict:
    """Parse a document that must be one JSON object; DataError otherwise."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise DataError(f"{what} is not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{what} is not a JSON object")
    return doc
