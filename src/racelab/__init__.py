"""racelab: offline laboratory for sampling-based happens-before race detection."""

from .history import EXTENDED, SAMPLED_ONLY, RaceReport
from .olist import OrderedList
from .trace import (
    Event,
    GenConfig,
    OpKind,
    SamplingPolicy,
    Trace,
    apply_sampling,
    generate_trace,
    parse_trace,
    serialize_trace,
)

__all__ = [
    "OrderedList",
    "RaceReport",
    "SAMPLED_ONLY",
    "EXTENDED",
    "Event",
    "OpKind",
    "Trace",
    "GenConfig",
    "SamplingPolicy",
    "parse_trace",
    "serialize_trace",
    "apply_sampling",
    "generate_trace",
]

__version__ = "0.1.0"
