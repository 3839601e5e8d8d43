"""Server-side storage backend shared by a service's storage servers.

The backend models what the *provider* stores: a content-addressed chunk
store plus a per-user namespace mapping file paths to chunk lists.  Server
side deduplication (§4.3) falls out of the content-addressed store: a chunk
digest that was ever uploaded stays available, even after every file
referencing it is deleted, which is why Dropbox and Wuala can skip uploads
when a deleted file is restored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import StorageBackendError

__all__ = ["StoredFile", "StorageBackend"]


@dataclass
class StoredFile:
    """Metadata of one file as the server sees it."""

    name: str
    size: int
    chunk_digests: List[str] = field(default_factory=list)
    revision: int = 1
    deleted: bool = False


class StorageBackend:
    """Content-addressed chunk store plus per-user file namespaces."""

    def __init__(self, provider: str) -> None:
        self.provider = provider
        self._chunks: Dict[str, int] = {}
        self._namespaces: Dict[str, Dict[str, StoredFile]] = {}
        self.bytes_stored = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------ #
    # Chunk store
    # ------------------------------------------------------------------ #
    def has_chunk(self, digest: str) -> bool:
        """True if content with this digest is already stored."""
        return digest in self._chunks

    def store_chunk(self, digest: str, size: int) -> bool:
        """Store a chunk; returns True if it was new, False if deduplicated."""
        if size < 0:
            raise StorageBackendError("chunk size must be non-negative")
        self.bytes_received += size
        if digest in self._chunks:
            return False
        self._chunks[digest] = size
        self.bytes_stored += size
        return True

    def chunk_count(self) -> int:
        """Number of distinct chunks stored."""
        return len(self._chunks)

    # ------------------------------------------------------------------ #
    # Namespaces
    # ------------------------------------------------------------------ #
    def _namespace(self, user: str) -> Dict[str, StoredFile]:
        return self._namespaces.setdefault(user, {})

    def commit_file(self, user: str, name: str, size: int, chunk_digests: List[str]) -> StoredFile:
        """Create or update a file entry referencing already-stored chunks."""
        for digest in chunk_digests:
            if digest not in self._chunks:
                raise StorageBackendError(f"cannot commit {name!r}: chunk {digest[:12]}... was never uploaded")
        namespace = self._namespace(user)
        existing = namespace.get(name)
        if existing is None or existing.deleted:
            record = StoredFile(name=name, size=size, chunk_digests=list(chunk_digests))
            namespace[name] = record
            return record
        existing.size = size
        existing.chunk_digests = list(chunk_digests)
        existing.revision += 1
        existing.deleted = False
        return existing

    def delete_file(self, user: str, name: str) -> None:
        """Mark a file deleted; its chunks remain in the chunk store."""
        namespace = self._namespace(user)
        record = namespace.get(name)
        if record is None:
            raise StorageBackendError(f"cannot delete unknown file {name!r}")
        record.deleted = True

    def get_file(self, user: str, name: str) -> Optional[StoredFile]:
        """Return the (possibly deleted) file record, or ``None``."""
        return self._namespace(user).get(name)

    def list_files(self, user: str, include_deleted: bool = False) -> List[StoredFile]:
        """List the user's files, most recently committed last."""
        files = list(self._namespace(user).values())
        if not include_deleted:
            files = [record for record in files if not record.deleted]
        return files
