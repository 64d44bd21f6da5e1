"""Baseline full happens-before detector (Djit+, Pozniansky & Schuster, PPoPP 2003).

Djit+ is the sampling algorithm with every access in the sample and every
release ending an epoch: each access is checked and recorded regardless of
marks, and each release folds the thread's local time into its clock before
publishing it, then advances it.  So its per-event effective timestamp is the
causal timestamp, and its clocks and handlers are ``SamplingEngine``'s.
"""

from __future__ import annotations

from .sampling import SamplingEngine


class DjitpEngine(SamplingEngine):
    sample_all = True
