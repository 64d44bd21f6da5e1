"""Dense vector clocks: one non-negative integer component per thread.

The analysis engines keep plain ``list[int]`` clocks, each owned by a single
analysis stream, and combine them in place with ``join_into``.
"""

from __future__ import annotations

from typing import List, Sequence


class WidthMismatchError(ValueError):
    """Raised when two clocks of different widths are combined."""


def bottom(width: int) -> List[int]:
    """All-zero clock of the given width."""
    return [0] * width


def join_into(dst: List[int], src: Sequence[int]) -> int:
    """Join ``src`` into ``dst`` in place, returning how many components changed."""
    if len(dst) != len(src):
        raise WidthMismatchError(f"clock widths differ: {len(dst)} vs {len(src)}")
    changed = 0
    for i, v in enumerate(src):
        if v > dst[i]:
            dst[i] = v
            changed += 1
    return changed
