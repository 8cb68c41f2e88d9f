"""Shared exception types."""

import json
from contextlib import contextmanager


class ConfigError(Exception):
    """Invalid configuration, campaign setup, or file contents (CLI exit 2)."""


class ShapeError(ValueError):
    """Layer geometry violation: shape mismatch, unsupported kernel or stride."""


def json_typed(value, what: str, kind: type = int):
    """``value`` if it is a JSON value of type ``kind``: by default an integer
    (a bool, a float such as 8.0 or a string is not), a number (``float``:
    an integer or a float), or a bool, list or object (dict). ConfigError
    otherwise, so that no input file value is truncated or converted."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        name = {int: "integer", float: "number", dict: "object"}.get(kind, kind.__name__)
        raise ConfigError(f"{what} must be a JSON {name}, got {value!r}")
    return value


@contextmanager
def open_input(path: str, what: str, mode: str = "r"):
    """Open the input file ``path`` for the block. A file that cannot be read,
    and invalid JSON or a missing key raised inside the block, become a
    ConfigError that names ``what`` and the file."""
    try:
        with open(path, mode) as f:
            yield f
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} {path} is not valid JSON: {e}") from e
    except KeyError as e:
        raise ConfigError(f"{what} {path} lacks the field {e}") from e
