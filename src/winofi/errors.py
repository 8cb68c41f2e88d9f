"""Shared exception types."""

import json
from contextlib import contextmanager


class ConfigError(Exception):
    """Invalid configuration, campaign setup, or file contents (CLI exit 2)."""


class ShapeError(ValueError):
    """Layer geometry violation: shape mismatch, unsupported kernel or stride."""


class BitPositionError(ValueError):
    """Bit index outside the declared bit width."""


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
