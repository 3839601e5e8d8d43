"""Deterministic randomness helpers.

Every stochastic component in the library (file generators, resolver
placement, RTT jitter, benchmark repetitions) draws from a
:class:`random.Random` instance seeded explicitly, so that experiments are
reproducible run-to-run.  This module centralises seed derivation so that
independent components get independent but deterministic streams.

It also owns the one hand-off between a :class:`random.Random` and numpy:
:func:`peek_outputs` reads the rng's raw MT19937 outputs ahead of it and
:func:`skip_outputs` advances it past them.  Bulk replays of the
``random`` module's draws build on that pair — :func:`random_block` and
:func:`expovariate_block` here, :func:`repro.filegen.dictionary.paragraph_bytes`
for the text stream — and return exactly what the per-draw calls would,
leaving the rng exactly where those calls would.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np

__all__ = [
    "derive_seed",
    "make_rng",
    "DEFAULT_SEED",
    "peek_outputs",
    "skip_outputs",
    "random_block",
    "expovariate_block",
]

#: Seed used when callers do not supply one.
DEFAULT_SEED = 20131023  # IMC'13 conference date, October 23rd 2013.


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    The derivation hashes the labels so that streams for, e.g.,
    ``("dropbox", "rep", 3)`` and ``("dropbox", "rep", 4)`` are unrelated,
    while remaining fully deterministic.
    """
    hasher = hashlib.sha256()
    hasher.update(str(base_seed).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x00")
        hasher.update(repr(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


def make_rng(base_seed: int = DEFAULT_SEED, *labels: object) -> random.Random:
    """Return a :class:`random.Random` seeded from ``base_seed`` and labels."""
    return random.Random(derive_seed(base_seed, *labels))


# --------------------------------------------------------------------------- #
# Raw MT19937 outputs
# --------------------------------------------------------------------------- #
# ``random.Random`` is MT19937: ``getstate()`` is ``(version, key + (pos,),
# gauss_next)``, where ``key`` is the 624-word state and ``pos`` the index of
# the next word, the same pair numpy's ``MT19937`` bit generator holds.  So
# the state copies across, numpy draws the identical output stream in bulk,
# and the state after any number of outputs copies back.  ``gauss_next`` (the
# cached second value of ``gauss``) is not part of MT19937 and stays as is.


def _bit_generator(internal: tuple) -> np.random.MT19937:
    """numpy's MT19937 positioned where ``getstate()[1]`` of a ``random.Random`` is."""
    bitgen = np.random.MT19937(0)  # seeded only to skip OS entropy; the state is replaced
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
    }
    return bitgen


def peek_outputs(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` raw 32-bit outputs of ``rng``, without advancing it.

    Entry ``i`` is what the ``i``-th following ``rng.getrandbits(32)`` would
    return.  ``rng`` must be a plain :class:`random.Random`.
    """
    return _bit_generator(rng.getstate()[1]).random_raw(count)


def skip_outputs(rng: random.Random, count: int) -> None:
    """Advance ``rng`` past exactly ``count`` raw outputs, keeping ``gauss_next``.

    Leaves ``rng`` where ``count`` calls of ``rng.getrandbits(32)`` would.
    """
    version, internal, gauss_next = rng.getstate()
    bitgen = _bit_generator(internal)
    bitgen.random_raw(count, output=False)
    after = bitgen.state["state"]
    rng.setstate((version, tuple(after["key"].tolist()) + (int(after["pos"]),), gauss_next))


def random_block(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.random() for _ in range(count)]`` as a float64 array, bit for bit.

    ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53`` over two
    consecutive outputs ``a``, ``b``: every step is exact in float64, so the
    array form equals the C expression.  ``rng`` ends where the loop leaves it.
    """
    raw = peek_outputs(rng, 2 * count)
    skip_outputs(rng, 2 * count)
    high = (raw[0::2] >> 5).astype(np.float64)
    low = (raw[1::2] >> 6).astype(np.float64)
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def expovariate_block(rng: random.Random, count: int, lambd: float) -> np.ndarray:
    """``[rng.expovariate(lambd) for _ in range(count)]`` as a float64 array, bit for bit.

    ``expovariate`` is ``-log(1.0 - random()) / lambd``.  The logs go
    through :func:`math.log`, as in the loop: numpy's ``np.log`` is its own
    implementation and differs from the C library in the last bit of a
    small share of values.
    """
    complements = (1.0 - random_block(rng, count)).tolist()
    logs = np.fromiter(map(math.log, complements), dtype=np.float64, count=count)
    return -logs / lambd
