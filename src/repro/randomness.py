"""Deterministic randomness helpers.

Every stochastic component in the library (file generators, resolver
placement, RTT jitter, benchmark repetitions) draws from a
:class:`random.Random` instance seeded explicitly, so that experiments are
reproducible run-to-run.  This module centralises seed derivation so that
independent components get independent but deterministic streams.

It also owns the one hand-off between a :class:`random.Random` and numpy:
:func:`take_outputs` draws the rng's next raw MT19937 outputs and advances
it past them in one pass, :func:`peek_outputs` reads outputs ahead of it
and :func:`skip_outputs` advances it past them.  Bulk replays of the
``random`` module's draws build on these — :func:`random_block` and
:func:`expovariate_block` here take what they use, and
:func:`repro.filegen.dictionary.paragraph_bytes`, which decodes more
outputs than the text consumes, peeks and skips — and return exactly
what the per-draw calls would, leaving the rng exactly where those calls
would.  :func:`seeded_randbytes` replays
``random.Random(seed).randbytes(size)`` without a :class:`random.Random`
at all.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
from typing import Optional

import numpy as np

__all__ = [
    "derive_seed",
    "make_rng",
    "DEFAULT_SEED",
    "peek_outputs",
    "skip_outputs",
    "take_outputs",
    "random_block",
    "expovariate_block",
    "seeded_randbytes",
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
#
# Each thread draws through one ``RandomState`` of its own, built on first
# use: building one costs ~0.1 ms (its MT19937 is first seeded from OS
# entropy), more than a small draw, and nothing is built at import.

_local = threading.local()


def _source() -> np.random.RandomState:
    """This thread's ``RandomState``; only ever used after its state is replaced."""
    source = getattr(_local, "source", None)
    if source is None:
        source = _local.source = np.random.RandomState(0)
    return source


def _bit_generator(internal: tuple) -> np.random.MT19937:
    """This thread's MT19937, positioned where ``getstate()[1]`` of a ``random.Random`` is."""
    bitgen = _source()._bit_generator
    # The setter copies the key word by word, and indexes a tuple of ints
    # far faster than an array (~5 vs ~90 us on a 2-vCPU x86-64 VM).
    bitgen.state = {"bit_generator": "MT19937", "state": {"key": internal[:-1], "pos": internal[-1]}}
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
    _advance(rng, count, output=False)


def take_outputs(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` raw 32-bit outputs of ``rng``, advancing it past them.

    :func:`peek_outputs` followed by :func:`skip_outputs`, with each output
    generated once instead of twice: entry ``i`` is what the ``i``-th
    following ``rng.getrandbits(32)`` would return, ``rng`` ends where those
    calls would leave it, and ``gauss_next`` is kept.
    """
    return _advance(rng, count, output=True)


def _advance(rng: random.Random, count: int, *, output: bool) -> Optional[np.ndarray]:
    """Draw ``count`` outputs of ``rng`` on this thread's MT19937, then copy its final state back.

    Returns the outputs when ``output`` is true, else ``None``.
    """
    version, internal, gauss_next = rng.getstate()
    bitgen = _bit_generator(internal)
    raw = bitgen.random_raw(count, output=output)
    after = bitgen.state["state"]
    rng.setstate((version, tuple(after["key"].tolist()) + (int(after["pos"]),), gauss_next))
    return raw


def random_block(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.random() for _ in range(count)]`` as a float64 array, bit for bit.

    ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53`` over two
    consecutive outputs ``a``, ``b``: every step is exact in float64, so the
    array form equals the C expression.  ``rng`` ends where the loop leaves it.
    """
    raw = take_outputs(rng, 2 * count)
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


# --------------------------------------------------------------------------- #
# Seeded bytes
# --------------------------------------------------------------------------- #
def _init_key(seed: int) -> list[int]:
    """The ``init_by_array`` key ``random.seed(seed)`` builds: ``abs(seed)``'s 32-bit words, low first."""
    rest = abs(seed)
    key = [rest & 0xFFFFFFFF]
    rest >>= 32
    while rest:
        key.append(rest & 0xFFFFFFFF)
        rest >>= 32
    return key


def seeded_randbytes(seed: int, size: int) -> bytes:
    """``random.Random(seed).randbytes(size)``, bit for bit, drawn in bulk by numpy.

    ``random.seed`` runs MT19937's ``init_by_array`` over the words of
    :func:`_init_key`, and so does ``RandomState.seed`` when handed them as
    a **list**.  Not as an array: numpy squeezes a one-element array to a
    scalar and runs ``init_genrand`` instead, which would give every seed
    below 2**32 another stream.

    ``randbytes(size)`` is the next ``ceil(size / 4)`` raw outputs, little
    endian, except that a partial last word keeps its *top* ``size % 4``
    bytes: ``getrandbits`` shifts it right by ``32 - 8 * (size % 4)``.
    """
    source = _source()
    source.seed(_init_key(seed))
    words = source.randint(0, 2**32, size=-(-size // 4), dtype=np.uint32)
    partial = size % 4
    if partial:
        words[-1] >>= 32 - 8 * partial
    return words.astype("<u4", copy=False).view(np.uint8)[:size].tobytes()
