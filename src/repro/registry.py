"""Name registry shared by the pluggable kinds: kernel backends,
balancing strategies and cost models.

Selection for a requested name depends only on the request:

1. an explicit registered name is honored as-is — tests and ablations
   that pin an implementation get exactly that implementation;
2. ``"auto"`` is resolved by the kind's own default (a heuristic or a
   fixed name) before the class is looked up.

Nothing outside the request (no environment variable) takes part, so a
run is fully set by its spec.
"""

from __future__ import annotations

from typing import Callable, Dict, List

__all__ = ["AUTO", "Registry"]

#: The selection sentinel: resolve by the kind's default.
AUTO = "auto"


class Registry:
    """Registered classes of one kind, keyed by name.

    ``noun`` names the kind in error messages (``"unknown kernel
    backend 'x'"``).
    """

    def __init__(self, noun: str) -> None:
        self.noun = noun
        self._classes: Dict[str, type] = {}

    def register(self, name: str) -> Callable[[type], type]:
        """Class decorator: register ``cls`` under ``name``."""
        def deco(cls: type) -> type:
            if name == AUTO:
                raise ValueError(f"{AUTO!r} is reserved for the default")
            if name in self._classes:
                raise ValueError(f"{self.noun} {name!r} already registered")
            cls.name = name
            self._classes[name] = cls
            return cls
        return deco

    def names(self) -> List[str]:
        """All registered names, sorted (``auto`` excluded)."""
        return sorted(self._classes)

    def get(self, name: str) -> type:
        """The class registered under ``name``.

        An unknown name raises ``ValueError`` listing what would have
        worked.  ``"auto"`` is not a registered name: the kind resolves
        it to one before calling here.
        """
        if name not in self._classes:
            raise ValueError(f"unknown {self.noun} {name!r}; known: "
                             f"{', '.join(self.names())} (or {AUTO!r})")
        return self._classes[name]
