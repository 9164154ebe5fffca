"""The spec-file codec shared by every JSON spec family.

Scenario, network, arena and session files differ only in their fields.
Everything else lives here once: the :class:`SpecError` every family
raises, the JSON reader behind ``load`` (and behind the CLI's kind
sniffing), the ``save`` layout, the ``from_dict`` preamble and the field
validators.  A family subclasses :class:`SpecFile`, names its ``KIND``
and ``FIELDS``, and implements ``_from_fields``, ``validate`` and
``to_dict``.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, ClassVar

from repro.core.config import BHSSConfig

if TYPE_CHECKING:
    from typing import Self

__all__ = [
    "NO_JAMMER",
    "SpecError",
    "SpecFile",
    "flatten_grid",
    "grid_values",
    "read_json",
    "require_int",
    "require_number",
]

#: the jammer spec meaning "not attacked" (the unjammed baseline)
NO_JAMMER: dict[str, Any] = {"type": "none"}


class SpecError(ValueError):
    """A spec failed validation; the message names the field."""


def require_int(value: object, path: str, minimum: int | None = None) -> int:
    """``value`` as an int (bools rejected), at least ``minimum`` if given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecError(f"{path}: must be >= {minimum}, got {value}")
    return int(value)


def require_number(value: object, path: str) -> float:
    """``value`` as a float (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{path}: expected a number, got {value!r}")
    return float(value)


def grid_values(values: object, path: str) -> tuple[float, ...]:
    """A non-empty list of numbers as a float tuple (an operating-point axis)."""
    if not isinstance(values, (list, tuple)) or not values:
        raise SpecError(f"{path}: must be a non-empty list of numbers")
    return tuple(require_number(v, f"{path}[{i}]") for i, v in enumerate(values))


def flatten_grid(data: dict[str, Any]) -> dict[str, Any]:
    """``data`` with its optional ``grid`` mapping's ``snr_db``/``sjr_db`` lifted to the top."""
    grid = data.get("grid", {})
    if not isinstance(grid, dict):
        raise SpecError("grid: must be a mapping with snr_db/sjr_db lists")
    unknown = set(grid) - {"snr_db", "sjr_db"}
    if unknown:
        raise SpecError(f"unknown grid field(s): {sorted(unknown)}")
    return {**{k: v for k, v in data.items() if k != "grid"}, **grid}


def read_json(path: str, kind: str) -> Any:
    """The parsed JSON document at ``path``; a ``SpecError`` naming the path if not."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"{path}: cannot read {kind} file ({exc})") from None
    except ValueError as exc:
        raise SpecError(f"{path}: invalid JSON ({exc})") from None


class SpecFile:
    """Base of the frozen spec dataclasses that round-trip through a JSON file.

    ``KIND`` names the family in messages; ``FIELDS`` is its set of
    top-level keys.  Subclasses call ``super().__post_init__()`` for the
    ``name``/``description`` checks every family shares.
    """

    KIND: ClassVar[str]
    FIELDS: ClassVar[frozenset[str]]

    name: str
    description: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("name: must be a non-empty string")
        if not isinstance(self.description, str):
            raise SpecError("description: must be a string")

    @classmethod
    def _from_fields(cls, data: dict[str, Any]) -> Self:
        """Build the spec from a checked mapping (``config`` already parsed)."""
        raise NotImplementedError

    def validate(self) -> Self:
        """Deep-check the component specs; returns self."""
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-able spec; :meth:`from_dict` inverts it."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: object, source: str | None = None) -> Self:
        """Rebuild and deep-validate a spec from :meth:`to_dict` output.

        ``source`` (e.g. a file path) prefixes error messages.  Component
        specs are built once, so a bad field fails here, not mid-run.
        """
        try:
            if not isinstance(data, dict):
                raise SpecError(f"{cls.KIND} spec must be a mapping, got {type(data).__name__}")
            unknown = set(data) - cls.FIELDS
            if unknown:
                raise SpecError(f"unknown {cls.KIND} field(s): {sorted(unknown)}")
            if "name" not in data:
                raise SpecError("name: field is required")
            fields = dict(data)
            if "config" in cls.FIELDS:
                try:
                    fields["config"] = BHSSConfig.from_dict(data.get("config", {}))
                except ValueError as exc:
                    raise SpecError(f"config: {exc}") from None
            return cls._from_fields(fields).validate()
        except SpecError as exc:
            if source:
                raise SpecError(f"{source}: {exc}") from None
            raise

    def save(self, path: str) -> str:
        """Write the spec as pretty-printed JSON; returns the path."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> Self:
        """Read and validate a spec JSON file."""
        return cls.from_dict(read_json(path, cls.KIND), source=path)
