"""The test computer: hosts the synced folder and the client under test."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.filegen.model import GeneratedFile
from repro.services.base import CloudStorageClient, SyncSummary
from repro.testbed.folder import SyncedFolder

__all__ = ["TestComputer"]


class TestComputer:
    """The machine (a Windows VM in the paper) running the application under test.

    Files placed into its synced folder are handed to the installed client,
    which then synchronizes them to the cloud over the simulated network.
    """

    #: Not a pytest test class, whatever its name says.
    __test__ = False

    def __init__(self, folder: Optional[SyncedFolder] = None) -> None:
        self.folder = folder if folder is not None else SyncedFolder()
        self._client: Optional[CloudStorageClient] = None

    # ------------------------------------------------------------------ #
    # Client installation
    # ------------------------------------------------------------------ #
    def install_client(self, client: CloudStorageClient) -> None:
        """Install the application under test."""
        self._client = client

    @property
    def client(self) -> CloudStorageClient:
        """The installed client (raises if none is installed)."""
        if self._client is None:
            raise ConfigurationError("no client installed on the test computer")
        return self._client

    # ------------------------------------------------------------------ #
    # File operations + synchronization
    # ------------------------------------------------------------------ #
    def receive_files(self, files: Sequence[GeneratedFile], timestamp: float) -> List[str]:
        """Write files into the synced folder (they are not synchronized yet)."""
        return [self.folder.put(file, timestamp).name for file in files]

    def synchronize(self, files: Sequence[GeneratedFile]) -> SyncSummary:
        """Let the installed client synchronize the given files."""
        return self.client.sync_files(files)

    def delete_files(self, names: Sequence[str], timestamp: float) -> None:
        """Delete files locally and let the client propagate the deletion."""
        for name in names:
            self.folder.delete(name, timestamp)
        self.client.delete_files(names)
