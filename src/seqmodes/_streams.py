"""Counter-based deterministic random streams.

Every stochastic component of the package draws from a Philox generator keyed
by a (seed, tag) pair, with a block index written directly into the Philox
counter. Two consumers that share (seed, tag, block) therefore see identical
values by construction, without any array copying, and every pipeline is
bit-reproducible from its seeds. SGLD chains key one generator per block of
``STEP_BLOCK`` steps and per purpose: step t (1-based) reads row
(t − 1) % STEP_BLOCK of the draws of block (t − 1) // STEP_BLOCK.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK = (1 << 64) - 1

# Stream tags and the chain block length. Values are arbitrary but frozen:
# changing them changes every seeded output in the package.
NOISE_TAG = 1
BATCH_TAG = 2
DATA_TAG = 3
LANGUAGE_TAG = 4
REGION_TAG = 5
VOLUME_TAG = 6
STEP_BLOCK = 256


def keyed_generator(seed: int, tag: int, block: int = 0) -> np.random.Generator:
    """A fresh Generator for the (seed, tag, block) triple."""
    key = np.array([int(seed) & _MASK, int(tag) & _MASK], dtype=_U64)
    counter = np.array([0, 0, int(block) & _MASK, 0], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
