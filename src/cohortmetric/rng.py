"""Named substreams so every component draws from its own reproducible stream."""

from __future__ import annotations

import numpy as np

# Fixed component indices; appending is fine, reordering breaks reproducibility.
STREAMS = {
    "simulate": 0,
    # 1 is unused: the partition tree draws no random numbers
    "split": 2,
    "oracle": 3,
    "bench": 4,
}


def substream(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Generator for component `name`, optionally keyed further (fold index etc.)."""
    key = (STREAMS[name],) + tuple(int(e) for e in extra)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))
