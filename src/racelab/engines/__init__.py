"""Analysis engines and the token registry used by the CLI.

Each engine lives in the module named by its token; ``create_engine``
imports only the module of the engine it builds.
"""

from __future__ import annotations

from importlib import import_module

from .. import ENGINE_TOKENS
from ..trace import Trace
from .base import Engine, observe

# token -> class name in module ``racelab.engines.<token>``
_CLASS_NAMES = {
    "djitp": "DjitpEngine",
    "sampling": "SamplingEngine",
    "uclock": "UclockEngine",
    "orderedlist": "OrderedListEngine",
}


def create_engine(token: str, tr: Trace, **kwargs) -> Engine:
    """Instantiate the engine named by ``token``, sized for ``tr``."""
    try:
        name = _CLASS_NAMES[token]
    except KeyError:
        raise ValueError(f"unknown engine token {token!r}") from None
    cls = getattr(import_module(f".{token}", __name__), name)
    return cls(tr.num_threads, tr.num_locks, tr.num_vars, **kwargs)


__all__ = ["ENGINE_TOKENS", "Engine", "create_engine", "observe"]
