"""racelab: offline laboratory for sampling-based happens-before race detection."""

__version__ = "0.1.0"

# The engine tokens, one module each under ``racelab.engines``; here, so that
# the CLI can list them without loading an engine module.
ENGINE_TOKENS = ("djitp", "sampling", "uclock", "orderedlist")
