"""Counter-based random substreams.

Every stochastic routine in the package derives its generators here: a
user seed is expanded into independent 64-bit roots, and each fixed block
of work (a slab of pulses, a chunk of field samples) gets its own Philox
generator keyed by (root, block index).  A block's draws therefore
depend only on the seed and the block's position, never on how much
other work the run contains.

Root 0 drives the pulse blocks and the Poisson control source, root 1
the stationary field noise, root 2 its clicks (one Poisson total and its
uniforms per field chunk), root 3 the timing jitter and root 4 the
arrival offsets of a pulse train (one stream over its clicks in block
order).  Estimators draw none.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_roots", "block_generator"]


def derive_roots(seed, count: int = 5) -> np.ndarray:
    """Expand a user seed into ``count`` independent uint64 stream roots."""
    ss = np.random.SeedSequence(seed)
    return ss.generate_state(count, dtype=np.uint64)


def block_generator(root: np.uint64, block: int) -> np.random.Generator:
    """Generator for one work block, keyed by (root, block index)."""
    key = np.array([root, np.uint64(block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
