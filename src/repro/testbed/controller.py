"""The testbed controller: one instance per (service, experiment run).

The controller wires together the simulator, the sniffer, the storage
backend, the client under test and the FTP driver, and exposes the
operations experiments are composed of: start the session, place files,
synchronize, modify, delete, stay idle.  Every operation returns an
:class:`Observation` carrying the information needed to compute the paper's
metrics *from the captured trace*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.capture.sniffer import Sniffer
from repro.capture.trace import PacketTrace
from repro.filegen.model import GeneratedFile
from repro.netsim.scenario import ScenarioSpec
from repro.netsim.simulator import NetworkSimulator
from repro.randomness import DEFAULT_SEED
from repro.services.backend import StorageBackend
from repro.services.base import CloudStorageClient, SyncSummary
from repro.services.registry import create_client, get_profile
from repro.testbed.folder import SyncedFolder
from repro.testbed.ftp import FTPDriver
from repro.testbed.testcomputer import TestComputer

__all__ = ["Observation", "TestbedController"]


@dataclass
class Observation:
    """Everything recorded around one testbed operation."""

    service: str
    label: str
    window_start: float
    window_end: float
    modification_time: Optional[float]
    benchmark_bytes: int
    storage_hostnames: List[str]
    control_hostnames: List[str]
    summary: Optional[SyncSummary] = None
    trace: PacketTrace = field(default_factory=PacketTrace)

    def storage_trace(self) -> PacketTrace:
        """Packets exchanged with storage servers during the window."""
        return self.trace.to_hosts(self.storage_hostnames)


class TestbedController:
    """Drives one service through one experiment run.

    ``scenario`` overlays a network condition
    (:class:`~repro.netsim.scenario.ScenarioSpec`) on every path the client
    opens; its jitter terms are derived from ``seed``, so a seed sweep
    under a jittery scenario spreads traffic-driven metrics across seeds.
    ``None`` (or the identity baseline) leaves the simulator untouched and
    every observation byte-identical to the scenario-less testbed.
    """

    #: Not a pytest test class, whatever its name says.
    __test__ = False

    def __init__(
        self,
        service: str,
        *,
        start_time: float = 0.0,
        scenario: Optional["ScenarioSpec"] = None,
        seed: int = DEFAULT_SEED,
    ) -> None:
        self.service = service.lower()
        self.profile = get_profile(self.service)
        self.simulator = NetworkSimulator(start_time=start_time)
        self.scenario = scenario
        if scenario is not None and not scenario.is_identity():
            self.simulator.path_warp = scenario.bind(seed)
        self.sniffer = Sniffer(self.simulator)
        self.backend = StorageBackend(self.service)
        self.client: CloudStorageClient = create_client(self.service, self.simulator, self.backend)
        self.test_computer = TestComputer(SyncedFolder())
        self.test_computer.install_client(self.client)
        self.ftp = FTPDriver(self.simulator, self.test_computer)
        self._session_started = False

    # ------------------------------------------------------------------ #
    # Session management
    # ------------------------------------------------------------------ #
    def start_session(self, *, polling: bool = False) -> Observation:
        """Start the application: login and (optionally) background polling."""
        window_start = self.simulator.now
        self.client.login()
        if polling:
            self.client.start_polling()
        self._session_started = True
        return self._observation("login", window_start, modification_time=None, benchmark_bytes=0)

    def end_session(self) -> None:
        """Stop polling and close every connection."""
        self.client.disconnect()
        self._session_started = False

    def wait(self, seconds: float) -> None:
        """Let simulated time pass (background polling keeps running)."""
        self.simulator.run_for(seconds)

    def idle(self, seconds: float) -> Observation:
        """Observe the client while idle for ``seconds`` (Fig. 1's scenario)."""
        window_start = self.simulator.now
        self.simulator.run_for(seconds)
        return self._observation("idle", window_start, modification_time=None, benchmark_bytes=0)

    # ------------------------------------------------------------------ #
    # Workload operations
    # ------------------------------------------------------------------ #
    def sync_upload(self, files: Sequence[GeneratedFile], label: str = "upload") -> Observation:
        """Place a batch of files in the synced folder and synchronize it.

        The modification time recorded in the observation is the moment the
        first file of the batch lands in the folder — the reference point of
        the start-up metric (§5.1), testing-application artifact included.
        """
        self._ensure_session()
        # The window opens an instant after "now" so that packets stamped at
        # exactly the end of the previous operation are not attributed to
        # this one (relevant for services whose control and storage share
        # the same servers, e.g. Wuala).
        window_start = self.simulator.now + 1e-9
        self.ftp.put_files(files)
        modification_time = min(
            event.timestamp for event in self.test_computer.folder.events if event.timestamp >= window_start
        )
        summary = self.test_computer.synchronize(files)
        return self._observation(
            label,
            window_start,
            modification_time=modification_time,
            benchmark_bytes=sum(file.size for file in files),
            summary=summary,
        )

    def delete(self, names: Sequence[str], label: str = "delete") -> Observation:
        """Delete files from the synced folder."""
        self._ensure_session()
        window_start = self.simulator.now + 1e-9
        self.ftp.delete_files(names)
        return self._observation(label, window_start, modification_time=window_start, benchmark_bytes=0)

    def pause_between_experiments(self, seconds: float = 300.0) -> None:
        """The ≥5 minute cool-down between experiments prescribed by §2.3."""
        self.simulator.run_for(seconds)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _ensure_session(self) -> None:
        if not self._session_started:
            self.start_session()

    def _observation(
        self,
        label: str,
        window_start: float,
        *,
        modification_time: Optional[float],
        benchmark_bytes: int,
        summary: Optional[SyncSummary] = None,
    ) -> Observation:
        window_end = self.simulator.now
        return Observation(
            service=self.service,
            label=label,
            window_start=window_start,
            window_end=window_end,
            modification_time=modification_time,
            benchmark_bytes=benchmark_bytes,
            storage_hostnames=self.client.storage_hostnames,
            control_hostnames=self.client.control_hostnames,
            summary=summary,
            trace=self.sniffer.trace.between(window_start, window_end + 1.0),
        )
