"""Application layer: key distribution, blind computation, and sensing.

Each app lives in its own module, imported the first time one of its names
is looked up, so a run imports only the apps its scenario names.
"""

from __future__ import annotations

import importlib
from collections.abc import MutableMapping

# The module that defines each public class.
_MODULE_OF = {
    "QkdApp": "qkd", "QkdConfig": "qkd", "QkdResult": "qkd",
    "UbqcApp": "ubqc", "UbqcConfig": "ubqc", "UbqcResult": "ubqc",
    "SensingApp": "sensing", "SensingConfig": "sensing", "SensingResult": "sensing",
}

__all__ = ["APPS", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


class _AppTable(MutableMapping):
    """Each scenario app "type": the config class its block builds, and the
    app class that runs it, looked up by name on the kind's first use."""

    def __init__(self, entries: dict) -> None:
        self._entries = entries

    def __getitem__(self, kind: str) -> tuple[type, type]:
        entry = self._entries[kind]
        if isinstance(entry[0], str):
            entry = self._entries[kind] = tuple(map(__getattr__, entry))
        return entry

    def __setitem__(self, kind: str, entry: tuple[type, type]) -> None:
        self._entries[kind] = entry

    def __delitem__(self, kind: str) -> None:
        del self._entries[kind]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


APPS = _AppTable({
    "qkd": ("QkdConfig", "QkdApp"),
    "ubqc": ("UbqcConfig", "UbqcApp"),
    "sensing": ("SensingConfig", "SensingApp"),
})
