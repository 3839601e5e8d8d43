"""The synchronized folder watched by the client under test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.filegen.model import GeneratedFile

__all__ = ["FileEvent", "SyncedFolder"]


@dataclass(frozen=True)
class FileEvent:
    """One file-system event observed in the synced folder."""

    timestamp: float
    operation: str  # "create", "modify", "delete"
    name: str
    size: int


class SyncedFolder:
    """In-memory model of the folder the storage client keeps in sync."""

    def __init__(self) -> None:
        self._files: Dict[str, GeneratedFile] = {}
        self.events: List[FileEvent] = []

    # ------------------------------------------------------------------ #
    # Content
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def names(self) -> List[str]:
        """Names of the files currently in the folder."""
        return sorted(self._files)

    def get(self, name: str) -> Optional[GeneratedFile]:
        """Return a file by name, or ``None``."""
        return self._files.get(name)

    def total_bytes(self) -> int:
        """Total size of the folder content."""
        return sum(file.size for file in self._files.values())

    # ------------------------------------------------------------------ #
    # Mutation (always timestamped: events feed the start-up metric)
    # ------------------------------------------------------------------ #
    def put(self, file: GeneratedFile, timestamp: float) -> FileEvent:
        """Create or overwrite a file and record the corresponding event."""
        operation = "modify" if file.name in self._files else "create"
        self._files[file.name] = file
        event = FileEvent(timestamp=timestamp, operation=operation, name=file.name, size=file.size)
        self.events.append(event)
        return event

    def delete(self, name: str, timestamp: float) -> FileEvent:
        """Delete a file and record the corresponding event."""
        if name not in self._files:
            raise ConfigurationError(f"cannot delete unknown file {name!r}")
        size = self._files.pop(name).size
        event = FileEvent(timestamp=timestamp, operation="delete", name=name, size=size)
        self.events.append(event)
        return event
