"""racelab: offline laboratory for sampling-based happens-before race detection."""

from importlib import import_module

from .history import EXTENDED, SAMPLED_ONLY
from .trace import (
    SamplingPolicy,
    Trace,
    apply_sampling,
    parse_trace,
    serialize_trace,
)

# Loaded on first use, so that ``racelab analyze`` never compiles them.
_LAZY = {
    "OrderedList": "olist",
    "GenConfig": "gen",
    "generate_trace": "gen",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "OrderedList",
    "SAMPLED_ONLY",
    "EXTENDED",
    "Trace",
    "GenConfig",
    "SamplingPolicy",
    "parse_trace",
    "serialize_trace",
    "apply_sampling",
    "generate_trace",
]

__version__ = "0.1.0"
