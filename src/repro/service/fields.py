"""Request field tables: one declarative entry per field of a request body.

Each POST endpoint describes its JSON body as a tuple of :class:`Field`
entries, built once at import.  The same tuple drives decoding
(:func:`decode_fields`), the semantic checks (:func:`check_fields`), and
the endpoint's ``request_fields`` in ``GET /v1/schema``
(:meth:`Field.describe`), so what the schema advertises is what the
service enforces.  (``/batch`` and ``/admin/shards`` keep their own
envelope checks; their tables only document the body.)

Decoding raises only :class:`~repro.service.errors.BadRequest` (400): a
body that is not an object, a missing required field, a value of the wrong
JSON type.  Checking raises only :class:`~repro.service.errors.Unprocessable`
(422): a value outside the field's enum or below its minimum, a group label
or dimension member that does not parse.  An absent or ``null`` field
without a default decodes to ``None``; a field with a default rejects an
explicit ``null``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from ..core.measures import available_measures
from ..exceptions import ReproError
from .encoding import parse_group, parse_member
from .errors import BadRequest, Unprocessable

__all__ = [
    "DATASET",
    "MEASURE",
    "Field",
    "check_fields",
    "decode_fields",
    "require_object",
]


def require_object(payload) -> Mapping:
    if not isinstance(payload, Mapping):
        raise BadRequest(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _string(name: str, value):
    if not isinstance(value, str) or not value:
        raise BadRequest(f"field {name!r} must be a non-empty string")
    return value


def _text(name: str, value):
    if not isinstance(value, str):
        raise BadRequest(f"field {name!r} must be a string")
    return value


def _integer(name: str, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"field {name!r} must be an integer")
    return value


def _natural(name: str, value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise BadRequest(f"field {name!r} must be a non-negative integer")
    return value


def _boolean(name: str, value):
    if not isinstance(value, bool):
        raise BadRequest(f"field {name!r} must be a boolean")
    return value


def _number(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"field {name!r} must be a number")
    return float(value)


def _object(name: str, value):
    if not isinstance(value, Mapping):
        raise BadRequest(f"field {name!r} must be a JSON object")
    return value


def _array(name: str, value):
    if not isinstance(value, (list, tuple)):
        raise BadRequest(f"field {name!r} must be a JSON array")
    return value


def _strings(name: str, value):
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise BadRequest(f"field {name!r} must be a JSON array of strings")
    return tuple(value)


def _numbers(name: str, value):
    return {str(key): _number(name, item) for key, item in _object(name, value).items()}


def _rankings(name: str, value):
    return {str(key): _strings(name, item) for key, item in _object(name, value).items()}


_KINDS: dict[str, tuple[str, Callable]] = {
    # kind: (JSON type, envelope decoder)
    "string": ("string", _string),  # non-empty
    "text": ("string", _text),  # any string, empty included
    "choice": ("string", _text),  # any string; must be in the enum
    "group": ("string", _string),  # parsed as attr=value[,attr=value]
    "member": ("string", _string),  # parsed as a member of "dimension"
    "int": ("integer", _integer),
    "natural": ("integer", _natural),  # negative is an envelope fault
    "bool": ("boolean", _boolean),
    "number": ("number", _number),  # int or float, decoded to float
    "object": ("object", _object),
    "array": ("array", _array),
    "strings": ("array", _strings),  # of strings, decoded to a tuple
    "numbers": ("object", _numbers),  # of numbers, decoded to floats
    "rankings": ("object", _rankings),  # of string arrays, decoded to tuples
}


@dataclass(frozen=True)
class Field:
    """One request field: its JSON contract, decoding and schema entry.

    ``enum`` is a static tuple, or a zero-argument callable for a live
    registry (measures, interventions) so runtime registrations are both
    accepted and advertised.  ``minimum`` bounds an ``int`` field.
    ``items`` documents the element tables of an ``array`` field, by kind
    of element.
    """

    name: str
    kind: str
    description: str
    required: bool = False
    default: object = None
    enum: tuple[str, ...] | Callable[[], list[str]] | None = None
    minimum: int | None = None
    items: Mapping[str, tuple[Field, ...]] | None = None

    def __post_init__(self) -> None:
        # The kind's envelope decoder, resolved once at import.
        object.__setattr__(self, "decode", _KINDS[self.kind][1])

    def describe(self) -> dict:
        """The field's ``request_fields`` entry in ``GET /v1/schema``."""
        entry: dict = {
            "name": self.name,
            "type": _KINDS[self.kind][0],
            "required": self.required,
            "description": self.description,
        }
        if self.default is not None:
            entry["default"] = self.default
        if self.kind == "natural":
            entry["minimum"] = 0
        enum = self.enum() if callable(self.enum) else self.enum
        if enum is not None:
            entry["enum"] = list(enum)
        if self.items is not None:
            entry["items"] = {
                kind: [field.describe() for field in table]
                for kind, table in self.items.items()
            }
        return entry


DATASET = Field(
    "dataset", "string",
    "registered dataset name (see GET /v1/datasets)", required=True,
)
"""The ``dataset`` field every dataset-addressed endpoint shares."""

MEASURE = Field(
    "measure", "string",
    "distance measure; defaults to the dataset's default_measure",
    enum=available_measures,
)
"""The ``measure`` field of the endpoints that read one F-Box."""


def decode_fields(table: tuple[Field, ...], payload) -> dict:
    """Every field of ``table`` decoded from ``payload``; envelope faults 400."""
    payload = require_object(payload)
    values = {}
    for field in table:
        name = field.name
        value = payload.get(name, field.default)
        if value is None:
            if field.required:
                raise BadRequest(f"missing required field {name!r}")
            if field.default is None:
                values[name] = None
                continue
        values[name] = field.decode(name, value)
    return values


def _semantic(parse, *args):
    try:
        return parse(*args)
    except ReproError as error:
        raise Unprocessable(str(error)) from error


def check_fields(table: tuple[Field, ...], values: dict) -> None:
    """The semantic checks over decoded ``values``; faults are 422.

    Group labels and dimension members are replaced by their parsed form.
    """
    for field in table:
        name = field.name
        value = values[name]
        if value is None:
            continue
        if field.enum is not None:
            choices = field.enum() if callable(field.enum) else field.enum
            if value not in choices:
                raise Unprocessable(
                    f"field {name!r} must be one of {list(choices)}, got {value!r}"
                )
        elif field.minimum is not None and value < field.minimum:
            raise Unprocessable(
                f"field {name!r} must be at least {field.minimum}, got {value}"
            )
        elif field.kind == "group":
            values[name] = _semantic(parse_group, value)
        elif field.kind == "member":
            values[name] = _semantic(parse_member, values["dimension"], value)

