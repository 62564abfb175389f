"""Text in and out.  ``read_text`` reads every input file as UTF-8.  JSON
reading, shared by the config and schedule loaders, is strict: finite
numbers only, and objects checked by ``checked_fields`` against the
annotations of the records they build.  Every JSON document goes out
through ``dumps``."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import DomainError


def read_text(path: str) -> str:
    """The text of the file ``path``, decoded as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{key_text(path)} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise DomainError(f"cannot read {key_text(path)}: {exc.strerror}") from None


def _reject(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


def _finite(parse):
    def checked(token: str):
        if not math.isfinite(float(token)):
            raise ValueError(f"number {token} overflows a float")
        return parse(token)

    return checked


def loads_finite(text: str):
    """``json.loads`` that raises ValueError on NaN, Infinity and on numbers
    too large for a float (``1e999``), so no non-finite value gets in."""
    return json.loads(text, parse_constant=_reject, parse_float=_finite(float), parse_int=_finite(int))


def dumps(doc) -> str:
    """``doc`` as JSON text: indent 2, sorted keys, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def key_text(key: str) -> str:
    """``key`` escaped as inside a JSON string, so that a control character
    in a key cannot split a one-line message."""
    return json.dumps(key)[1:-1]


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)  # a bool is never a number


# field annotation -> (JSON type named in messages, test of a JSON value);
# fields with any other annotation are checked by their loader
_JSON_TYPES = {
    "int": ("integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("number", _number),
    "float | None": ("number or null", lambda v: v is None or _number(v)),
    "str": ("string", lambda v: isinstance(v, str)),
    "dict": ("object", lambda v: isinstance(v, dict)),
    "dict[str, float]": ("object of numbers", lambda v: isinstance(v, dict) and all(map(_number, v.values()))),
    "tuple[LogicalGate, ...]": ("array of strings", lambda v: isinstance(v, list) and all(type(x) is str for x in v)),
    "tuple[str, str]": ("pair of strings",
                        lambda v: isinstance(v, list) and len(v) == 2 and all(type(x) is str for x in v)),
    "tuple[Primitive, ...]": ("array", lambda v: isinstance(v, list)),
}


def checked_fields(types: dict[str, str | None], body, label: str, required=()) -> dict:
    """A copy of the JSON object ``body`` whose keys are among ``types`` and
    include ``required``, with each value of the JSON type its annotation in
    ``types`` names.  ``label`` names the object in the DomainError raised
    otherwise."""
    if not isinstance(body, dict):
        raise DomainError(f"{label} must be a JSON object")
    unknown, missing = body.keys() - types.keys(), set(required) - body.keys()
    if unknown:
        raise DomainError(f"unknown keys in {label}: {', '.join(map(key_text, sorted(unknown)))}")
    if missing:
        raise DomainError(f"{label} is missing keys: {', '.join(sorted(missing))}")
    for key, value in body.items():
        name, test = _JSON_TYPES.get(types[key], (None, None))
        if test and not test(value):
            raise DomainError(f"{label}.{key} must be a JSON {name}, got {json.dumps(value)}")
    return dict(body)
