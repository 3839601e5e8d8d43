"""Generator for incompressible random binary files."""

from __future__ import annotations

from repro.filegen.model import FileKind, GeneratedFile
from repro.randomness import DEFAULT_SEED, derive_seed, seeded_randbytes

__all__ = ["RandomBinaryGenerator", "generate_binary"]


class RandomBinaryGenerator:
    """Produce files of uniformly random bytes.

    Random bytes carry maximal entropy, so no compressor can shrink them;
    the paper uses such files both in the compression probe (§4.5, Fig. 5b)
    and as the payload for the performance benchmarks (§5, Fig. 6).
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self._seed = seed

    def generate(self, size: int, name: str = "blob.bin") -> GeneratedFile:
        """Generate a binary file of exactly ``size`` random bytes.

        The bytes are ``make_rng(seed, "binary", name, size).randbytes(size)``,
        drawn in bulk by :func:`~repro.randomness.seeded_randbytes`.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        content = seeded_randbytes(derive_seed(self._seed, "binary", name, size), size)
        return GeneratedFile(name=name, content=content, kind=FileKind.BINARY)


def generate_binary(size: int, name: str = "blob.bin", seed: int = DEFAULT_SEED) -> GeneratedFile:
    """Convenience wrapper around :class:`RandomBinaryGenerator`."""
    return RandomBinaryGenerator(seed).generate(size, name)
