"""Application layer: key distribution, blind computation, and sensing."""

from .qkd import QkdApp, QkdConfig, QkdResult
from .sensing import SensingApp, SensingConfig, SensingResult
from .ubqc import UbqcApp, UbqcConfig, UbqcResult

__all__ = [
    "APPS",
    "QkdApp", "QkdConfig", "QkdResult",
    "UbqcApp", "UbqcConfig", "UbqcResult",
    "SensingApp", "SensingConfig", "SensingResult",
]

# Each scenario app "type": the config class its block builds, and the app
# class that runs it.
APPS = {
    "qkd": (QkdConfig, QkdApp),
    "ubqc": (UbqcConfig, UbqcApp),
    "sensing": (SensingConfig, SensingApp),
}
