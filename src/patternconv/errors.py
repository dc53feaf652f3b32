"""Exception hierarchy shared across the package, the file and JSON
document readers that turn an undecodable or malformed input into a
DataError, the field checker every reader declares its fields to, and the
atomic writer of output files, which makes their directories."""

import json
import math
import operator
import os
from contextlib import contextmanager

import numpy as np


class PatternConvError(Exception):
    """Base class for all package errors."""


class ConfigError(PatternConvError):
    """Invalid configuration or usage (CLI exit code 1)."""


class DataError(PatternConvError):
    """Malformed or invariant-violating input data (CLI exit code 2)."""


class NumericalError(PatternConvError):
    """Non-finite loss or other numerical failure (CLI exit code 3)."""


def json_object(text: str | dict, what: str) -> dict:
    """Parse a document that must be one JSON object; DataError otherwise. A
    document parsed already (a dict) is returned as it is."""
    if type(text) is dict:
        return text
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
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


# The shared field rules, each a (test, rule) pair; bool is not an integer.
INTEGER = (lambda value: type(value) is int, "an integer")
NUMBER = (lambda value: type(value) is int or type(value) is float and math.isfinite(value),
          "a finite number")
BOOL = (lambda value: type(value) is bool, "true or false")
STRING = (lambda value: type(value) is str, "a string")
LIST = (lambda value: type(value) is list, "a list")
OBJECT = (lambda value: type(value) is dict, "a JSON object")


def within(interval: str, entry: tuple = NUMBER) -> tuple:
    """The rule of `entry` on a value in an interval written as the rule
    reads, such as "[0, 0.5)" or "[1, inf)"."""
    test, rule = entry
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = operator.gt if interval[0] == "(" else operator.ge
    below = operator.lt if interval[-1] == ")" else operator.le
    return ((lambda value: test(value) and above(value, low) and below(value, high)),
            f"{rule} in {interval}")


def nullable(entry: tuple) -> tuple:
    test, rule = entry
    return (lambda value: value is None or test(value)), f"null or {rule}"


def list_of(entry: tuple, rule: str) -> tuple:
    test = entry[0]
    return (lambda value: type(value) is list and all(map(test, value))), rule


def field_error(what: str, key: str, rule: str, value, error=DataError) -> Exception:
    """The error for a field that breaks its rule, with the value's JSON cut
    short."""
    shown = json.dumps(value)
    shown = shown if len(shown) <= 40 else shown[:37] + "..."
    return error(f"{what} '{key}' must be {rule}, not {shown}")


def fields(doc: dict, spec: dict, what: str, error=DataError) -> dict:
    """The values of the keys of `spec` in `doc`, in spec order. A spec entry
    is (test, rule) or (test, rule, default); a missing key without a default
    or a value that fails its test raises an error naming the key."""
    out = {}
    for key, (test, rule, *default) in spec.items():
        if key in doc:
            if not test(doc[key]):
                raise field_error(what, key, rule, doc[key], error)
            out[key] = doc[key]
        elif default:
            out[key] = default[0]
        else:
            raise error(f"{what} missing key '{key}'")
    return out


def float_array(values: list, n: int, what: str, key: str, ok=np.isfinite,
                rule: str = "finite numbers") -> np.ndarray:
    """An array field as (n,) float64 by one numpy conversion (null reads as
    NaN); DataError unless it holds n JSON numbers or nulls, not the strings
    and bools numpy would convert, and `ok` holds for each."""
    try:
        array = (np.array(values, dtype=np.float64)
                 if set(map(type, values)) <= {int, float, type(None)} else None)
    except OverflowError:  # an integer past the float range
        array = None
    if array is None or array.shape != (n,) or not ok(array).all():
        raise field_error(what, key, f"a list of {n} {rule}", values)
    return array


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
    completes: it makes the file's directory if it is missing, writes a
    temporary file there and moves it into place with os.replace. A run that
    fails or is killed mid-write leaves any earlier file at `path` whole."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
