"""Seed plumbing. All randomness in the package flows through here."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _non_negative(seed: int) -> int:
    if seed < 0:
        raise ValidationError(f"seeds must be non-negative, got {seed}")
    return seed


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Pass Generators through, turn ints (or None) into a fresh Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(None if seed is None else _non_negative(seed))


def derive_rng(*keys: int) -> np.random.Generator:
    """Deterministic sub-stream from a tuple of integer keys.

    Used to give each (seed, method, repetition) run its own independent
    stream without the streams colliding.
    """
    return np.random.default_rng(
        np.random.SeedSequence([_non_negative(int(k)) for k in keys]))
