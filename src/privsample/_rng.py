"""Deterministic per-key randomness.

Every random decision in this package is a pure function of
(seed, key, purpose).  This makes samples reproducible bit-for-bit across
runs and platforms, lets keys be processed in any order or in parallel,
and keeps the independent decisions (sampling, keeping, token choice,
noise) on separated streams.

The draw for one key is the 8-byte blake2b digest of the key's UTF-8
bytes, keyed by the seed (taken modulo 2**64, little-endian) and
personalised by the purpose; its top 53 bits b give the uniform
(b + 0.5) / 2**53, held below 1.0: for b = 2**53 - 1 the sum b + 0.5
rounds half to even up to 2**53, so that one draw takes the largest double
below 1.0 instead.  ``key_uniforms`` draws a whole batch: it keys one
blake2b state per (seed, purpose) and copies it for each key, so the key
block is compressed once per batch rather than once per key.  Callers
compare each uniform with a probability; only the Laplace baseline applies
an inverse CDF to it, in Python floats.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Iterator

import numpy as np

PURPOSE_SAMPLE = b"sample"
PURPOSE_KEEP = b"keep"
PURPOSE_TOKEN = b"token"
PURPOSE_LAPLACE = b"laplace"

_TWO53 = float(1 << 53)
# math, not numpy: np.nextafter at import raised the release peak RSS by 0.3 MB
_TOP = math.nextafter(1.0, 0.0)
_MASK64 = 0xFFFFFFFFFFFFFFFF
# digests converted per numpy call: bounds what a batch holds at once (4096
# raised the release peak RSS by about 0.4 MB for no gain in speed)
CHUNK = 1024


def key_uniforms(seed: int, keys: Iterable[str], purpose: bytes) -> Iterator[float]:
    """Uniform draws in the open interval (0, 1), one per key, in key order."""
    keyed = hashlib.blake2b(
        digest_size=8, key=(seed & _MASK64).to_bytes(8, "little"), person=purpose
    )
    digests: list[bytes] = []
    for key in keys:
        h = keyed.copy()
        h.update(key.encode("utf-8"))
        digests.append(h.digest())
        if len(digests) == CHUNK:
            yield from _uniforms(digests)
            digests = []
    yield from _uniforms(digests)


def _uniforms(digests: list[bytes]) -> list[float]:
    u = (np.frombuffer(b"".join(digests), "<u8") >> 11) + 0.5
    # +0.5 keeps the draw above 0 and _TOP below 1: u < q holds at q = 1, and the
    # Laplace inverse CDF stays finite
    u /= _TWO53
    return np.minimum(u, _TOP, out=u).tolist()
