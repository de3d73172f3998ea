"""Typed readers for the JSON that kmerge reads back: adapter headers,
store manifests and policy configs.

Each reader raises the error its caller passes, naming the field, and
converts nothing: a boolean is no integer, ``4.9`` is no rank and
``"4"`` is no number, because converting them would read a different
value than the one written. Messages are built only when raising.
"""

from __future__ import annotations

from typing import Callable

Error = Callable[[str], Exception]

# kind -> (the JSON value types it accepts, its name in messages)
_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
}


def json_value(value, kind: type, error: Error, what: str, *args):
    """``value`` if it is a JSON value of ``kind`` (``float`` takes any
    number); raises ``error`` naming ``what.format(*args)`` otherwise."""
    types, name = _KINDS[kind]
    if type(value) in types:
        return value
    raise error(f"{what.format(*args)} is not {name}: {value!r}")


def json_field(node, path: str, error: Error, kind: type | None = None):
    """The value at the dotted ``path`` below ``node``, checked against
    ``kind`` when given; raises ``error`` naming ``path`` when it is missing
    or of another kind."""
    value = node
    for part in path.split("."):
        try:
            value = value[part]
        except (KeyError, TypeError):
            raise error(f"missing field {path!r}") from None
    return value if kind is None else json_value(value, kind, error, path)

