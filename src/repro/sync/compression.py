"""Compression policies: always, never, or content-aware ("smart").

§4.5: Dropbox compresses every file before transmission, Google Drive
compresses but skips content it recognises as already compressed (it detects
JPEG magic numbers, Fig. 5c), the other services do not compress at all.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass

__all__ = ["COMPRESSION_LEVEL", "CompressionPolicy", "CompressionResult", "Compressor", "looks_compressed"]

#: The zlib level every compressing client deflates at.  One level for all
#: clients is what lets a client size a chunk once per digest.
COMPRESSION_LEVEL = 6

#: Magic numbers of formats that are already compressed; a smart policy
#: refuses to recompress payloads starting with any of these signatures.
_COMPRESSED_MAGIC_NUMBERS = (
    b"\xff\xd8\xff",          # JPEG
    b"\x89PNG\r\n\x1a\n",     # PNG
    b"GIF87a",                # GIF
    b"GIF89a",                # GIF
    b"PK\x03\x04",            # ZIP / DOCX / APK
    b"\x1f\x8b",              # GZIP
    b"BZh",                   # BZIP2
    b"\xfd7zXZ\x00",          # XZ
    b"7z\xbc\xaf\x27\x1c",    # 7-Zip
    b"\x00\x00\x00\x18ftyp",  # MP4
    b"\x00\x00\x00\x20ftyp",  # MP4
    b"ID3",                   # MP3
    b"OggS",                  # OGG
    b"fLaC",                  # FLAC (lossless but already entropy-coded)
    b"RIFF",                  # AVI / WEBP containers
)


class CompressionPolicy(str, enum.Enum):
    """When a client compresses data before uploading it."""

    NEVER = "never"
    ALWAYS = "always"
    SMART = "smart"


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing (or deciding not to compress) a payload."""

    original_size: int
    transmitted_size: int
    compressed: bool

    @property
    def ratio(self) -> float:
        """Transmitted bytes over original bytes (1.0 when not compressed)."""
        if self.original_size == 0:
            return 1.0
        return self.transmitted_size / self.original_size


def looks_compressed(data: bytes) -> bool:
    """Content sniffing: does the payload start with a compressed-format magic number?

    This is the check a "smart" client performs before spending CPU on
    compression; the paper's fake-JPEG probe (§4.5) exists precisely to
    expose it, because a fake JPEG passes this test while its body would in
    fact compress very well.
    """
    return data.startswith(_COMPRESSED_MAGIC_NUMBERS)


class Compressor:
    """Applies a :class:`CompressionPolicy` to payloads before transmission."""

    def __init__(self, policy: CompressionPolicy) -> None:
        self.policy = policy

    def process(self, data: bytes) -> CompressionResult:
        """Return the transmission size decision for ``data``.

        Even under ``ALWAYS``, a compressed output larger than the input is
        discarded (zlib adds a few bytes of framing on incompressible data),
        since every real client falls back to the raw payload in that case.
        """
        original = len(data)
        if original == 0:
            return CompressionResult(original_size=0, transmitted_size=0, compressed=False)
        if self.policy is CompressionPolicy.NEVER:
            return CompressionResult(original_size=original, transmitted_size=original, compressed=False)
        if self.policy is CompressionPolicy.SMART and looks_compressed(data):
            return CompressionResult(original_size=original, transmitted_size=original, compressed=False)
        compressed_size = len(zlib.compress(data, COMPRESSION_LEVEL))
        if compressed_size >= original:
            return CompressionResult(original_size=original, transmitted_size=original, compressed=False)
        return CompressionResult(original_size=original, transmitted_size=compressed_size, compressed=True)
