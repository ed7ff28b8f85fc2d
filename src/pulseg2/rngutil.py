"""Counter-based random substreams.

Every stochastic routine in the package derives its generators here: a
user seed is expanded into independent 64-bit roots, and each fixed block
of work (a slab of pulses, a chunk of field samples) gets its own Philox
stream keyed by (root, block index), starting at counter 0.  A block's
draws therefore depend only on the seed and the block's position, never
on how much other work the run contains.

A run over many blocks of one root re-keys one Philox per block
(`block_generators`): the same stream as a new one, at a tenth of the cost.

Seven roots in all.  Root 0 drives the pulse blocks and the Poisson
control source, root 1 the powers of the stationary field noise
(ceil(n / m) float32 standard exponentials per chunk of n cells, m = 4
on the default Gaussian grid), root 2 its click candidates' counts (one
Poisson count per 64 cells), root 3 the timing jitter, root 4 the
arrival offsets of a pulse train (one stream over its clicks in block
order, three uniforms per candidate: alias cell pick, place in the cell,
acceptance), root 5 the phases of the field noise (ceil(n / m) float32
uniforms per chunk) and root 6 its click candidates' places and
acceptance uniforms.  The first k roots are those a k-root expansion of
the same seed gives.  Pulse blocks are 2^17 pulses, field chunks 2^20
cells.  Estimators draw none.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_roots", "block_generators", "block_generator"]


def derive_roots(seed) -> np.ndarray:
    """Expand a user seed into the seven independent uint64 stream roots."""
    return np.random.SeedSequence(seed).generate_state(7, dtype=np.uint64)


def block_generators(root: np.uint64):
    """``at(block)``: one Generator for ``root``, re-keyed to (root, block).

    Each call sets the Philox key to (root, block), counter 0, and empties
    its buffers, so the draws that follow equal a new generator's bit for
    bit.  Every call returns the same Generator; keep one per caller.
    """
    key = np.array([root, 0], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    rng = np.random.Generator(bit_generator)
    zero = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def at(block: int) -> np.random.Generator:
        key[1] = block
        bit_generator.state = state
        return rng
    return at


def block_generator(root: np.uint64, block: int) -> np.random.Generator:
    """Generator for one work block, keyed by (root, block index)."""
    return block_generators(root)(block)
