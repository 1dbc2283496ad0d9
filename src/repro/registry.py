"""Name registry shared by the pluggable kinds: kernel backends,
balancing strategies and cost models.

Selection order for a requested name:

1. an explicit registered name is honored as-is — tests and ablations
   that pin an implementation get exactly that implementation;
2. ``"auto"`` consults the kind's environment variable (the CI matrices
   force one implementation over the whole suite this way; ``=auto``
   means "no override");
3. otherwise ``"auto"`` is returned unresolved, for the kind's own
   default (a heuristic or a fixed name) to pick.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List

__all__ = ["AUTO", "Registry"]

#: The selection sentinel: resolve by env var, then the kind's default.
AUTO = "auto"


class Registry:
    """Registered classes of one kind, keyed by name.

    ``noun`` names the kind in error messages (``"unknown kernel
    backend 'x'"``); ``env_var`` is the variable that reroutes
    ``"auto"`` requests.
    """

    def __init__(self, noun: str, env_var: str) -> None:
        self.noun = noun
        self.env_var = env_var
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
        """The class registered under ``name`` (``KeyError`` if none)."""
        if name not in self._classes:
            raise KeyError(f"unknown {self.noun} {name!r}; "
                           f"known: {', '.join(self.names())}")
        return self._classes[name]

    def requested(self, name: str = AUTO) -> str:
        """Validate ``name`` and apply the env override to ``auto``.

        Returns a registered name or ``"auto"`` (still to be resolved by
        the kind's default).  Explicit names win over the environment,
        so forcing via ``env_var`` reroutes every default-configured run
        without rewriting tests and ablations that pin a name.
        """
        known = f"known: {', '.join(self.names())} (or {AUTO!r})"
        if name == AUTO:
            forced = os.environ.get(self.env_var, "").strip()
            if not forced or forced == AUTO:
                return AUTO
            if forced not in self._classes:
                raise ValueError(f"{self.env_var}={forced!r} names an "
                                 f"unknown {self.noun}; {known}")
            return forced
        if name not in self._classes:
            raise ValueError(f"unknown {self.noun} {name!r}; {known}")
        return name
