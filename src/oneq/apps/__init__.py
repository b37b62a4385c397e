"""Application layer: key distribution, blind computation, and sensing.

Each app lives in its own module, imported by app_classes when a scenario
names its kind, so a run imports only the apps its scenario names.
"""

from __future__ import annotations

import importlib

__all__ = ["APPS", "app_classes"]

# Each scenario app "type", which is also its module: the names of the config
# class its block builds and of the app class that runs it.
APPS = {
    "qkd": ("QkdConfig", "QkdApp"),
    "ubqc": ("UbqcConfig", "UbqcApp"),
    "sensing": ("SensingConfig", "SensingApp"),
}


def app_classes(kind: str) -> tuple[type, type]:
    """The config class and the app class of an app kind, importing its module."""
    module = importlib.import_module(f"{__name__}.{kind}")
    config_name, app_name = APPS[kind]
    return getattr(module, config_name), getattr(module, app_name)
