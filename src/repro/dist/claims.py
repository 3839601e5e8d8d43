"""Atomic claim files: cooperative leases over a shared store.

Every ``shard`` runner walks the same plan and *claims* cells one by
one.  A claim is a small JSON lease
file inside the store's ``.claims`` directory, created with
``O_CREAT | O_EXCL`` — the POSIX-atomic "exactly one winner" primitive that
works on any shared filesystem, needing no server, no locks and no clock
agreement beyond coarse mtimes.

Liveness comes from heartbeats: a working runner periodically bumps its
lease file's mtime.  A lease whose mtime is older than the timeout is
*stale* — its runner is presumed dead — and any other runner may reclaim
it by atomically replacing the lease file with its own record.

The reclaim race is deliberately benign: if two runners reclaim the same
stale lease in the same instant, both recompute the cell.  Cell rows
are pure functions of their identity and store saves are atomic
last-writer-wins, so a duplicated execution wastes a little work but can
never corrupt the merged result.  That property is what lets the whole
protocol stay this small.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.core.campaign import CampaignCell
from repro.core.store import ResultStore, cache_key
from repro.obs.tracer import current_tracer

__all__ = ["DEFAULT_LEASE_TIMEOUT", "Lease", "ClaimBoard"]

logger = logging.getLogger(__name__)

#: Seconds without a heartbeat after which a lease counts as abandoned.
#: Generous relative to cell runtimes (seconds), small enough that a killed
#: runner's cells are reclaimed within a coffee break.
DEFAULT_LEASE_TIMEOUT = 60.0

_UNSAFE_SEP = "."


@dataclass(frozen=True)
class Lease:
    """One claim file's contents: who holds the cell, since when."""

    runner: str
    pid: int
    cell_key: str
    acquired_at: float
    mtime: float

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since the last heartbeat."""
        return (now if now is not None else time.time()) - self.mtime


class ClaimBoard:
    """The lease files of one shared store, from one runner's point of view.

    All methods are safe to call concurrently from any number of runners on
    the same directory; the only synchronization primitive used is the
    atomicity of ``open(O_CREAT|O_EXCL)`` and ``os.replace``.
    """

    def __init__(
        self,
        store: ResultStore,
        runner_id: str,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> None:
        self.root = store.claims_root()
        self.runner_id = runner_id
        self.lease_timeout = lease_timeout

    def path_for(self, cell: CampaignCell) -> str:
        """Claim file for one cell, named for humans plus the cache key."""
        name = _UNSAFE_SEP.join((cell.stage, cell.service, cell.unit, cache_key(cell)[:16]))
        safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in name)
        return os.path.join(self.root, safe + ".claim")

    def _record(self, cell: CampaignCell) -> bytes:
        payload = {
            "runner": self.runner_id,
            "pid": os.getpid(),
            "cell": cache_key(cell),
            "acquired_at": time.time(),
        }
        return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")

    def claim(self, cell: CampaignCell) -> bool:
        """Try to take the cell; ``True`` iff this runner now holds it.

        Fresh leases held by other runners are respected; a stale lease
        (no heartbeat within the timeout) is reclaimed in place.
        """
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(cell)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return self._try_reclaim(cell, path)
        with os.fdopen(fd, "wb") as handle:
            handle.write(self._record(cell))
        current_tracer().count("claims.acquired")
        return True

    def _try_reclaim(self, cell: CampaignCell, path: str) -> bool:
        lease = self._read_lease(path)
        if lease is not None and lease.runner == self.runner_id:
            return True  # already ours (e.g. a relaunched worker resuming)
        if lease is not None and lease.age() < self.lease_timeout:
            return False  # live holder
        if lease is None:
            # Unreadable: junk, or a rival mid-create (the O_EXCL open and
            # the record write are two steps).  Only treat it as abandoned
            # once it is old enough that no live writer can be behind it.
            try:
                age = time.time() - os.stat(path).st_mtime
            except OSError:
                return False  # vanished (released); next pass can claim fresh
            if age < self.lease_timeout:
                return False
        # Holder looks dead (stale mtime) or the file is unreadable junk:
        # replace it atomically with our own record.  If a rival reclaims in
        # the same instant, last-writer-wins and the duplicate execution is
        # harmless (pure cells, atomic saves) — verify ownership afterwards
        # to shrink, not eliminate, the duplicate window.
        tmp_path = path + f".{self.runner_id}.{os.getpid()}.tmp"
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(self._record(cell))
            os.replace(tmp_path, path)
        except OSError:
            return False
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:  # pragma: no cover
                    pass
        lease = self._read_lease(path)
        reclaimed = lease is not None and lease.runner == self.runner_id
        if reclaimed:
            tracer = current_tracer()
            tracer.count("claims.acquired")
            tracer.count("claims.reclaimed")
            logger.info("reclaimed stale lease on %s", cell.key)
        return reclaimed

    def heartbeat(self, cell: CampaignCell) -> None:
        """Refresh our lease's mtime so other runners keep hands off."""
        try:
            os.utime(self.path_for(cell), None)
        except OSError:  # lease vanished (released or reclaimed): nothing to refresh
            pass

    def release(self, cell: CampaignCell) -> None:
        """Drop the claim (after the result landed in the store)."""
        try:
            os.unlink(self.path_for(cell))
            current_tracer().count("claims.released")
        except OSError:  # already gone — e.g. reclaimed after we went stale
            pass

    def holder(self, cell: CampaignCell) -> Optional[Lease]:
        """The current lease on a cell, if any."""
        return self._read_lease(self.path_for(cell))

    def leases(self) -> List[Lease]:
        """Every readable lease on the board."""
        if not os.path.isdir(self.root):
            return []
        found = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".claim"):
                continue
            lease = self._read_lease(os.path.join(self.root, name))
            if lease is not None:
                found.append(lease)
        return found

    def _read_lease(self, path: str) -> Optional[Lease]:
        try:
            mtime = os.stat(path).st_mtime
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            return Lease(
                runner=str(payload["runner"]),
                pid=int(payload.get("pid", -1)),
                cell_key=str(payload.get("cell", "")),
                acquired_at=float(payload.get("acquired_at", 0.0)),
                mtime=mtime,
            )
        except (KeyError, TypeError, ValueError):
            return None
