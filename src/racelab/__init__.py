"""racelab: offline laboratory for sampling-based happens-before race detection."""

__version__ = "0.1.0"
