"""Client-side (convergent) encryption model.

Wuala encrypts data locally before upload; the paper highlights two
properties (§4.3, §6): encryption does not noticeably hurt synchronisation
performance, and it is *compatible with deduplication* because two identical
plaintexts produce two identical ciphertexts.  That is the defining property
of convergent encryption: the content key is derived from the content
itself.

This module models that behaviour.  It is **not** a secure cipher — the goal
is to reproduce the traffic- and dedup-relevant properties (deterministic,
size-preserving up to a small header, high-entropy output), not
confidentiality.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["ConvergentEncryptor", "EncryptedPayload"]

#: Bytes of key/metadata header prepended to every encrypted payload.
ENCRYPTION_HEADER_BYTES = 48


@dataclass(frozen=True)
class EncryptedPayload:
    """Result of encrypting one plaintext payload."""

    ciphertext_size: int
    content_key: str
    digest: str

    @property
    def overhead(self) -> int:
        """Extra bytes added by encryption framing."""
        return ENCRYPTION_HEADER_BYTES


class ConvergentEncryptor:
    """Deterministic content-keyed encryption model.

    * The content key is the SHA-256 of the plaintext, so identical inputs
      always map to identical ciphertexts (dedup-friendly).
    * The ciphertext digest is derived from the content key, so it is stable
      and high-entropy, and the ciphertext is incompressible by construction
      (modelled: the compression step must run *before* encryption, which is
      how Wuala's client behaves).
    * Ciphertext size is plaintext size plus a small fixed header.
    """

    def __init__(self, per_megabyte_cpu_seconds: float = 0.012) -> None:
        #: CPU cost of encrypting one megabyte, charged by the client model
        #: as local processing time before upload starts.
        self.per_megabyte_cpu_seconds = per_megabyte_cpu_seconds

    def content_key(self, plaintext: bytes) -> str:
        """Derive the convergent content key for ``plaintext``.

        The hash of ``b"convergent-key:" + plaintext``, fed in two parts so
        the plaintext is hashed in place rather than copied behind the prefix.
        """
        hasher = hashlib.sha256(b"convergent-key:")
        hasher.update(plaintext)
        return hasher.hexdigest()

    def encrypt(self, plaintext: bytes) -> EncryptedPayload:
        """Encrypt ``plaintext`` and return the payload description."""
        key = self.content_key(plaintext)
        digest = hashlib.sha256(b"ciphertext:" + key.encode("ascii")).hexdigest()
        return EncryptedPayload(
            ciphertext_size=len(plaintext) + ENCRYPTION_HEADER_BYTES,
            content_key=key,
            digest=digest,
        )

    def cpu_time(self, nbytes: int) -> float:
        """Client CPU seconds needed to encrypt ``nbytes``."""
        return self.per_megabyte_cpu_seconds * nbytes / 1_000_000.0
