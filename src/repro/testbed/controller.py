"""The testbed of §2 in one object: one instance per (service, experiment run).

The paper's testing application writes files over FTP into the synced
folder of a test computer, the client under test synchronizes them, and
a sniffer on the test computer's interface captures every packet.  The
controller is all of that: the simulated network (the test computer's
interface), the sniffer, the storage backend, the client under test and
the synced folder, which the FTP writes reach after a small LAN delay.
It exposes the operations experiments are composed of: start the
session, place files, synchronize, delete, stay idle.  Every operation
returns an :class:`Observation` carrying the information needed to
compute the paper's metrics *from the captured trace*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.capture.sniffer import Sniffer
from repro.capture.trace import PacketTrace
from repro.errors import ConfigurationError
from repro.filegen.model import GeneratedFile
from repro.netsim.scenario import ScenarioSpec
from repro.netsim.simulator import NetworkSimulator
from repro.randomness import DEFAULT_SEED
from repro.services.backend import StorageBackend
from repro.services.base import CloudStorageClient
from repro.services.registry import create_client
from repro.units import mbps

__all__ = ["FTP_OPERATION_DELAY", "FTP_LAN_RATE_BPS", "Observation", "TestbedController"]

#: Command overhead of one FTP operation of the testing application.  The
#: paper notes that this artifact is part of the start-up metric but
#: affects every service equally (§5.1, footnote 5).
FTP_OPERATION_DELAY = 0.005

#: Rate of the testbed LAN that carries the FTP transfers.
FTP_LAN_RATE_BPS = mbps(400.0)


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
    trace: PacketTrace = field(default_factory=PacketTrace)

    def storage_trace(self) -> PacketTrace:
        """Packets exchanged with storage servers during the window."""
        return self.trace.to_hosts(self.storage_hostnames)


class TestbedController:
    """Drives one service through one experiment run on the §2 testbed.

    ``folder`` maps the name of every file in the synced folder to its
    content.  Each FTP write costs :data:`FTP_OPERATION_DELAY` plus the
    file's transfer time at :data:`FTP_LAN_RATE_BPS`, and each deleted name
    one :data:`FTP_OPERATION_DELAY`.

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
        scenario: Optional["ScenarioSpec"] = None,
        seed: int = DEFAULT_SEED,
    ) -> None:
        self.service = service.lower()
        self.simulator = NetworkSimulator()
        if scenario is not None and not scenario.is_identity():
            self.simulator.path_warp = scenario.bind(seed)
        self.sniffer = Sniffer(self.simulator)
        self.backend = StorageBackend(self.service)
        self.client: CloudStorageClient = create_client(self.service, self.simulator, self.backend)
        self.folder: Dict[str, GeneratedFile] = {}
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

    def idle(self, seconds: float) -> Observation:
        """Observe the client while idle for ``seconds`` (Fig. 1's scenario).

        The window opens an instant after "now", as :meth:`sync_upload`'s
        does, so the login's last response is not counted as idle traffic.
        """
        window_start = self.simulator.now + 1e-9
        self.simulator.run_for(seconds)
        return self._observation("idle", window_start, modification_time=None, benchmark_bytes=0)

    # ------------------------------------------------------------------ #
    # Workload operations
    # ------------------------------------------------------------------ #
    def sync_upload(self, files: Sequence[GeneratedFile], label: str = "upload") -> Observation:
        """Write a batch of files into the synced folder over FTP and synchronize it.

        The modification time recorded in the observation is the moment the
        first file of the batch lands in the folder — the reference point of
        the start-up metric (§5.1), FTP transfer included.  An empty batch
        raises the client's :class:`~repro.errors.ServiceError`.
        """
        self._ensure_session()
        # The window opens an instant after "now" so that packets stamped at
        # exactly the end of the previous operation are not attributed to
        # this one (relevant for services whose control and storage share
        # the same servers, e.g. Wuala).
        window_start = self.simulator.now + 1e-9
        modification_time = None
        for file in files:
            self.simulator.run_for(FTP_OPERATION_DELAY + file.size * 8.0 / FTP_LAN_RATE_BPS)
            self.folder[file.name] = file
            if modification_time is None:
                modification_time = self.simulator.now
        self.client.sync_files(files)
        return self._observation(
            label,
            window_start,
            modification_time=modification_time,
            benchmark_bytes=sum(file.size for file in files),
        )

    def delete(self, names: Sequence[str], label: str = "delete") -> Observation:
        """Delete files from the synced folder over FTP.

        Every name must be in the folder (a repeated name counts as unknown
        the second time); otherwise :class:`~repro.errors.ConfigurationError`
        is raised before the clock or the folder changes.
        """
        remaining = dict(self.folder)
        for name in names:
            if remaining.pop(name, None) is None:
                raise ConfigurationError(f"cannot delete unknown file {name!r}")
        self._ensure_session()
        window_start = self.simulator.now + 1e-9
        for _ in names:
            self.simulator.run_for(FTP_OPERATION_DELAY)
        self.folder = remaining
        self.client.delete_files(names)
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
            trace=self.sniffer.trace.between(window_start, window_end + 1.0),
        )
