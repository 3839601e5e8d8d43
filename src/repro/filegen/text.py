"""Generator for highly compressible text files made of dictionary words."""

from __future__ import annotations

import random

from repro.filegen.dictionary import paragraph_bytes
from repro.filegen.model import FileKind, GeneratedFile
from repro.randomness import DEFAULT_SEED, make_rng

__all__ = ["RandomTextGenerator", "generate_text"]


class RandomTextGenerator:
    """Produce text files composed of random words from a dictionary.

    The generated content mimics natural-language text and therefore
    compresses well (typically to 25–40 % of the original size with zlib),
    which is what the paper's compression probe (§4.5, Fig. 5a) relies on.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self._seed = seed

    def generate(self, size: int, name: str = "document.txt", *, rng: random.Random | None = None) -> GeneratedFile:
        """Generate a text file of exactly ``size`` bytes named ``name``."""
        if size < 0:
            raise ValueError("size must be non-negative")
        rng = rng or make_rng(self._seed, "text", name, size)
        content = paragraph_bytes(rng, size, "\n\n")[:size]
        return GeneratedFile(name=name, content=content, kind=FileKind.TEXT)


def generate_text(size: int, name: str = "document.txt", seed: int = DEFAULT_SEED) -> GeneratedFile:
    """Convenience wrapper around :class:`RandomTextGenerator`."""
    return RandomTextGenerator(seed).generate(size, name)
