"""Exception hierarchy shared across the package, the file and JSON
document readers that turn an undecodable or malformed input into a
DataError, and the atomic writer of output files."""

import json
import os
from contextlib import contextmanager


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


def read_text(path) -> str:
    """A data file's text; DataError when it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise DataError(f"{path} is not UTF-8 text: {e}") from None


def padding_field(doc: dict, what: str, k: int | None) -> int:
    """The zero padding a bank, model or filter snapshot document records;
    documents written before the field matched with 1. DataError unless it is
    a non-negative integer, and, for patterns or filters of k steps, at most
    k - 1: a window past that holds no clip step, so more padding only adds
    all-zero windows (a bank without patterns has no k)."""
    padding = doc.get("padding", 1)
    if isinstance(padding, bool) or not isinstance(padding, int) or padding < 0:
        raise DataError(f"{what} padding must be a non-negative integer")
    if "padding" in doc and k is not None and padding > k - 1:
        raise DataError(f"{what} padding {padding} is above k - 1 = {k - 1}: "
                        "it only adds windows that hold no clip step")
    return padding


def check_version(doc: dict, version: int, what: str) -> None:
    """DataError unless a document's format version is `version`; documents
    written before the field was checked read as version 1."""
    found = doc.get("version", 1)
    if type(found) is not int or found != version:
        raise DataError(f"{what} has format version {json.dumps(found)}, "
                        f"this reader reads version {version}")


@contextmanager
def atomic_write(path):
    """A text file handle whose contents replace `path` only when the block
    completes: it writes a temporary file in the same directory and moves it
    into place with os.replace. A run that fails or is killed mid-write
    leaves any earlier file at `path` whole."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
