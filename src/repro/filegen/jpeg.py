"""Generators for image-like files and for the paper's "fake JPEGs".

Two distinct content classes are needed:

* :class:`RandomImageGenerator` — files that *are* genuine JPEG-like
  payloads: a JPEG header followed by random (incompressible) entropy-coded
  data, standing in for the "images with random pixels" of §2.
* :class:`FakeJPEGGenerator` — files that merely *look* like JPEGs: correct
  extension and magic number, but the body is compressible text.  §4.5 uses
  these to tell apart services that sniff content (Google Drive skips
  compression for anything with a JPEG signature) from services that always
  compress (Dropbox).
"""

from __future__ import annotations

import random

from repro.filegen.dictionary import paragraph_bytes
from repro.filegen.model import FileKind, GeneratedFile
from repro.randomness import DEFAULT_SEED, derive_seed, make_rng, seeded_randbytes

__all__ = [
    "JPEG_MAGIC",
    "JPEG_EOI",
    "RandomImageGenerator",
    "FakeJPEGGenerator",
    "generate_image",
    "generate_fake_jpeg",
]

#: JPEG/JFIF start-of-image marker plus APP0 header, the "magic number"
#: checked by content-sniffing compressors.
JPEG_MAGIC = bytes.fromhex("ffd8ffe000104a46494600010100000100010000")
#: JPEG end-of-image marker.
JPEG_EOI = bytes.fromhex("ffd9")


def _with_jpeg_framing(body: bytes, size: int) -> bytes:
    """Wrap ``body`` with JPEG SOI/EOI framing and trim/pad to ``size`` bytes."""
    if size <= len(JPEG_MAGIC) + len(JPEG_EOI):
        return (JPEG_MAGIC + JPEG_EOI)[:size]
    payload_len = size - len(JPEG_MAGIC) - len(JPEG_EOI)
    payload = body[:payload_len]
    if len(payload) < payload_len:
        payload = payload + b"\x00" * (payload_len - len(payload))
    return JPEG_MAGIC + payload + JPEG_EOI


class RandomImageGenerator:
    """Produce JPEG-framed files whose body is incompressible random data."""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self._seed = seed

    def generate(self, size: int, name: str = "photo.jpg") -> GeneratedFile:
        """Generate an image file of exactly ``size`` bytes.

        ``size`` random bytes are drawn, as ``make_rng(seed, "image", name,
        size).randbytes(size)`` would; the file keeps the first ``size - 22``
        of them between the JPEG framing's 22 bytes.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        body = seeded_randbytes(derive_seed(self._seed, "image", name, size), size)
        content = _with_jpeg_framing(body, size)
        return GeneratedFile(name=name, content=content, kind=FileKind.IMAGE)


class FakeJPEGGenerator:
    """Produce files with a JPEG extension and header but compressible text inside."""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self._seed = seed

    def generate(self, size: int, name: str = "fake.jpg", *, rng: random.Random | None = None) -> GeneratedFile:
        """Generate a fake JPEG of exactly ``size`` bytes."""
        if size < 0:
            raise ValueError("size must be non-negative")
        rng = rng or make_rng(self._seed, "fake_jpeg", name, size)
        content = _with_jpeg_framing(paragraph_bytes(rng, size, "\n"), size)
        return GeneratedFile(name=name, content=content, kind=FileKind.FAKE_JPEG)


def generate_image(size: int, name: str = "photo.jpg", seed: int = DEFAULT_SEED) -> GeneratedFile:
    """Convenience wrapper around :class:`RandomImageGenerator`."""
    return RandomImageGenerator(seed).generate(size, name)


def generate_fake_jpeg(size: int, name: str = "fake.jpg", seed: int = DEFAULT_SEED) -> GeneratedFile:
    """Convenience wrapper around :class:`FakeJPEGGenerator`."""
    return FakeJPEGGenerator(seed).generate(size, name)
