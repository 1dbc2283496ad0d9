"""Active Global Address Space (AGAS) — a symbolic name registry.

HPX registers performance counters and distributed objects in AGAS so any
locality can resolve them by name (paper Sec. 5, Fig. 3).  Our cluster is
in-process, so AGAS reduces to a hierarchical name -> object registry with
the same resolution semantics: globally unique symbolic paths such as
``/counters/node3/busy_time`` or ``/objects/sd/17``.

The registry enforces single registration per name, which has caught
real bookkeeping bugs in the load-balancer tests.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List

__all__ = ["AddressSpace", "AgasError"]


class AgasError(KeyError):
    """Raised for unknown names or duplicate registrations."""


class AddressSpace:
    """Symbolic-name registry.

    Names are ``/``-separated paths, stored flat (no directory objects),
    which matches how HPX's counter names behave.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}

    @staticmethod
    def _normalize(name: str) -> str:
        if not name or not name.startswith("/"):
            raise AgasError(f"AGAS names must start with '/': {name!r}")
        # collapse duplicate separators, strip trailing slash
        parts = [p for p in name.split("/") if p]
        if not parts:
            raise AgasError("empty AGAS name")
        return "/" + "/".join(parts)

    def register(self, name: str, obj: Any) -> None:
        """Bind ``obj`` to ``name``; duplicate names are an error."""
        key = self._normalize(name)
        if key in self._entries:
            raise AgasError(f"name already registered: {key}")
        self._entries[key] = obj

    def resolve(self, name: str) -> Any:
        """Return the object bound to ``name``."""
        key = self._normalize(name)
        try:
            return self._entries[key]
        except KeyError:
            raise AgasError(f"unknown name: {key}") from None

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())
