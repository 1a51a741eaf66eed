"""Named random streams derived from one experiment seed.

Every source of randomness (representation-set sampling, strictify noise,
random instance generators) pulls a stream by name so that a fixed seed
reproduces every artifact byte for byte.
"""

from __future__ import annotations

import hashlib
import random


def stream(seed: int, *names) -> random.Random:
    label = repr((int(seed),) + tuple(str(n) for n in names)).encode()
    digest = hashlib.sha256(label).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def below(rng: random.Random, n: int, count: int) -> list[int]:
    """`count` draws of `rng.randrange(n)`, in order, by its `getrandbits`
    rejection loop: the same ints, and the stream left in the same state.
    n <= 0 is refused, as `randrange` refuses it (`getrandbits(0)` is
    always 0, so the loop would never end at n = 0)."""
    if n <= 0:
        raise ValueError(f"empty range for below({n})")
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        q = bits(k)
        while q >= n:
            q = bits(k)
        out.append(q)
    return out
