"""The one dict codec for the frozen spec and event dataclasses.

A class that inherits :class:`Codec` gets ``to_dict``/``from_dict``
derived from its dataclass fields, so the JSON format of every spec is
its field list and nothing else:

* ``to_dict`` maps each field name to its value, with nested codec
  values turned into dicts and tuples into lists, recursively;
* ``from_dict`` decodes each key by the field's declared type — a codec
  class ``X`` or ``Optional[X]`` through ``X.from_dict``, a tuple type
  (``Tuple[X, ...]`` or a fixed ``Tuple[A, B]``, nested freely) into
  tuples — and passes every other value through to the constructor,
  whose ``__post_init__`` normalizes and validates it.

Dicts arrive from outside the program (``--faults`` files, sweep
payloads), so a value of the wrong shape for its type raises
``TypeError`` rather than reaching a constructor.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Dict, Mapping

__all__ = ["Codec"]


class Codec:
    """Mixin deriving ``to_dict``/``from_dict`` from dataclass fields."""

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: _encode(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> Any:
        if not isinstance(d, Mapping):
            raise TypeError(f"{cls.__name__} expects a mapping, "
                            f"got {type(d).__name__}")
        hints = _field_types(cls)
        return cls(**{k: _decode(hints[k], v) if k in hints else v
                      for k, v in d.items()})


def _encode(value: Any) -> Any:
    if isinstance(value, Codec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Any]:
    """``cls``'s resolved field annotations (string annotations too)."""
    return typing.get_type_hints(cls)


def _decode(tp: Any, value: Any) -> Any:
    if typing.get_origin(tp) is typing.Union:    # Optional[X]
        if value is None:
            return None
        tp = next(a for a in typing.get_args(tp) if a is not type(None))
    if isinstance(tp, type) and issubclass(tp, Codec):
        return tp.from_dict(value)
    if typing.get_origin(tp) is not tuple:
        return value
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list for {tp}, "
                        f"got {type(value).__name__}")
    args = typing.get_args(tp)
    if len(args) == 2 and args[1] is Ellipsis:
        return tuple(_decode(args[0], v) for v in value)
    if len(value) != len(args):
        raise TypeError(f"expected {len(args)} entries for {tp}, "
                        f"got {len(value)}")
    return tuple(_decode(a, v) for a, v in zip(args, value))
