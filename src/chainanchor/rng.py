"""Deterministic, serializable randomness source for simulation runs.

Squeezes a SHA-256 counter stream from a seed-derived key.  The state is two
small values (key, block counter), so a world file can persist it and a
reloaded run continues the exact same stream.  Not intended to replace OS
randomness outside the simulation harness; production callers can inject
``random.SystemRandom`` instead, which exposes the same ``getrandbits``.
"""

from __future__ import annotations

import hashlib

# randbytes writes the block counter in 8 bytes, so a loaded state must
# hold a smaller one.
COUNTER_LIMIT = 1 << 64


class DeterministicRng:
    def __init__(self, seed: int = 0):
        self.key = hashlib.sha256(b"chainanchor-rng" + str(seed).encode()).digest()
        self.counter = 0

    def randbytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += hashlib.sha256(self.key + self.counter.to_bytes(8, "big")).digest()
            self.counter += 1
        return bytes(out[:n])

    def getrandbits(self, k: int) -> int:
        if k <= 0:
            raise ValueError("number of bits must be positive")
        nbytes = (k + 7) // 8
        x = int.from_bytes(self.randbytes(nbytes), "big")
        return x >> (8 * nbytes - k)
