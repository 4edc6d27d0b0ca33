"""Kept for importers of the flag: every kernel runs in numpy (``_fast``)."""

NUMBA_ENABLED = False
