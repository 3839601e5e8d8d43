"""Persistent, resumable campaign result store.

Reproducible cloud benchmarking needs *defined, repeatable, incrementally
re-runnable executions*: a campaign that dies (or is later extended with
more seeds, stages or repetitions) should pick up where it left off instead
of re-simulating every cell.  Because a campaign cell's rows are a pure
function of its identity — (stage, service, unit, seed,
:class:`~repro.core.campaign.CampaignConfig`) and the model code that
computes them — that identity can serve as a cache key: :class:`ResultStore`
keeps each completed cell as one canonical-JSON entry under a content hash
of the identity, the model-code fingerprint and
:data:`STORE_SCHEMA_VERSION`, and the campaign runner consults the store
before dispatching work.

An entry is plain data: the schema, the code fingerprint, the full key,
the runner that computed the cell, its wall clock, its coordinates and the
rows every campaign output renders from (see
:attr:`~repro.core.campaign.CellResult.records`).  Loading an entry runs no
code from the store directory, and ``*.pkl`` files that older releases
left in a store are foreign: they are never opened, only removed by
``cache rm --schema-foreign`` or ``--all``.

Entries are written atomically (temp file + ``os.replace``), so a campaign
killed mid-save never leaves a truncated entry behind; a corrupt entry
(unparseable, or missing a field) is logged, deleted and treated as a cache
miss, so a damaged store heals itself instead of wedging every subsequent
campaign.  An intact entry of another schema or key just misses and stays
on disk: on a shared store it may belong to a runner on other code.

The store is also the substrate for cross-machine sharding
(:mod:`repro.dist`): any number of runners pointed at a shared directory
claim and compute cells and merge for free.  To support that, every entry
records which runner computed it (``runner`` provenance, surfaced by
``cloudbench cache ls`` and the ``cloudbench merge`` accounting), and the
sibling ``.claims`` directory (managed by
:class:`repro.dist.claims.ClaimBoard`) holds the runners' claim lease files.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import re
import tempfile
import time
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.obs.export import to_canonical_json
from repro.obs.tracer import current_tracer
from repro.units import unit_sort_key

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.core.campaign import CampaignCell, CellResult

__all__ = [
    "STORE_SCHEMA_VERSION",
    "code_fingerprint",
    "model_fingerprint",
    "cache_key",
    "ResultStore",
]

logger = logging.getLogger(__name__)

#: Version of the on-disk entry layout *and* of the key material.  Bump it
#: whenever either changes: every existing entry then misses and is rebuilt.
#: (2: the key material gained the service-spec fingerprint and the
#: scenario-bearing campaign config.  3: CellResult grew failure/trace
#: fields.  4: the campaign config gained the ``load`` stage's population
#: knobs and the ``rep_cells`` plan axis.  5: entries are canonical-JSON
#: rows instead of pickles, and the key material gained the model-code
#: fingerprint.)
STORE_SCHEMA_VERSION = 5

#: File name suffix of a store entry; its flight record is ``<base>.trace.json``.
_ENTRY_SUFFIX = ".cell.json"
_TRACE_SUFFIX = ".trace.json"
#: Entries pickled by releases before schema 5: foreign, never opened.
_PICKLE_SUFFIX = ".pkl"

#: Characters allowed verbatim in store file names; the rest become ``_``.
_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: Every field of an entry and the JSON types it may hold.  A current-schema
#: entry missing one, or holding another type, is corrupt.
_ENTRY_FIELDS = {
    "schema": int, "code": str, "key": str, "runner": (str, type(None)), "wall_seconds": (int, float),
    "stage": str, "service": str, "unit": str, "seed": int, "rows": list,
}

#: Top-level entries of the ``repro`` package that cannot change a cell's
#: rows: tracing, benchmarking, linting and the command line.  Every other
#: module is model code and feeds :func:`model_fingerprint`.
_NON_MODEL_ENTRIES = ("analysis", "cli.py", "obs", "perf")

def code_fingerprint(package_dir: str) -> str:
    """sha256 over the model sources of the package tree at ``package_dir``.

    Hashes the path (relative to ``package_dir``, ``/``-separated) and the
    bytes of every ``.py`` file, in sorted walk order, skipping
    ``__pycache__`` and the non-model ``analysis/``, ``obs/``, ``perf/`` and
    ``cli.py``.  Relative paths make two checkouts of the same commit agree.
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(package_dir):
        top = dirpath == package_dir
        dirnames[:] = sorted(
            name for name in dirnames if name != "__pycache__" and not (top and name in _NON_MODEL_ENTRIES)
        )
        for filename in sorted(filenames):
            if not filename.endswith(".py") or (top and filename in _NON_MODEL_ENTRIES):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as handle:
                source = handle.read()
            relative = os.path.relpath(path, package_dir).replace(os.sep, "/").encode("utf-8")
            digest.update(b"%d:%s%d:" % (len(relative), relative, len(source)))
            digest.update(source)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def model_fingerprint() -> str:
    """:func:`code_fingerprint` of the running ``repro`` package, once per process."""
    return code_fingerprint(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def cache_key(cell: "CampaignCell") -> str:
    """Content hash of one cell's full identity.

    Covers everything the rows are a function of: the schema version, the
    model code (:func:`model_fingerprint` — so editing a model module
    invalidates every entry), the (stage, service, unit) coordinates, the
    *content* of the service's declarative spec (its fingerprint — so
    editing a spec file invalidates exactly that service's cells), the
    campaign seed and every field of the
    :class:`~repro.core.campaign.CampaignConfig` (by name, so a new field
    joins the key by construction and reordering fields does not alias
    keys) — including the network
    :class:`~repro.netsim.scenario.ScenarioSpec` the campaign runs under.
    """
    from repro.services.registry import spec_fingerprint  # deferred: registry imports are heavy

    material = repr(
        (
            STORE_SCHEMA_VERSION,
            model_fingerprint(),
            cell.stage,
            cell.service,
            spec_fingerprint(cell.service),
            cell.unit,
            cell.seed,
            sorted(dataclasses.asdict(cell.config).items()),
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _is_native(entry: dict) -> bool:
    """Whether a parsed entry was written by this schema and this model code."""
    return entry["schema"] == STORE_SCHEMA_VERSION and entry["code"] == model_fingerprint()


def _listing_key(entry: dict) -> tuple:
    """Listing order of store entries: (stage, service, unit, seed).

    Stages sort in campaign order (unknown ones last, alphabetically), so
    two listings of equal stores are byte-identical.  Units sort via
    :func:`repro.units.unit_sort_key`: population labels compare
    numerically (1k < 10k < 100k < 1M, where text order would interleave
    them) and per-repetition units by repetition number.
    """
    from repro.core.campaign import STAGES  # deferred: campaign imports this module

    stage = entry["stage"]
    return (
        (STAGES.index(stage), "") if stage in STAGES else (len(STAGES), stage),
        entry["service"],
        unit_sort_key(entry["unit"]),
        entry["seed"],
    )


def _read_sidecar(path: str) -> Optional[dict]:
    """A flight-record sidecar's JSON object, or ``None`` if it is missing or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def _write_atomically(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and ``os.replace``."""
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


class ResultStore:
    """Directory of canonical-JSON cell entries, one file per cell identity.

    ``runner`` tags every entry this store instance saves with a runner id,
    so multi-runner campaigns (:mod:`repro.dist`) can report which machine
    computed which cell.
    """

    def __init__(self, root: str, *, runner: Optional[str] = None) -> None:
        self.root = str(root)
        self.runner = runner

    def _base_for(self, cell: "CampaignCell") -> str:
        name = ".".join(
            (
                _UNSAFE.sub("_", cell.service),
                _UNSAFE.sub("_", cell.unit),
                cache_key(cell)[:16],
            )
        )
        return os.path.join(self.root, _UNSAFE.sub("_", cell.stage), name)

    def path_for(self, cell: "CampaignCell") -> str:
        """Store file for one cell: ``<root>/<stage>/<service>.<unit>.<key>.cell.json``."""
        return self._base_for(cell) + _ENTRY_SUFFIX

    def trace_path_for(self, cell: "CampaignCell") -> str:
        """Flight-record sidecar for one cell: ``<service>.<unit>.<key>.trace.json``."""
        return self._base_for(cell) + _TRACE_SUFFIX

    def claims_root(self) -> str:
        """Directory holding the claim lease files for this store."""
        return os.path.join(self.root, ".claims")

    def load(self, cell: "CampaignCell") -> Optional["CellResult"]:
        """The stored result for ``cell`` (rows, no payload), or ``None`` on any miss.

        A corrupt entry reads as a miss, never as an error: it is logged and
        *deleted*, so the runner recomputes the cell and the store heals.
        An intact entry for a foreign schema or key is left alone and
        simply misses.
        """
        from repro.core.campaign import CellResult  # deferred: campaign imports this module

        tracer = current_tracer()
        entry = self._read_entry(self.path_for(cell))
        if entry is None or entry["schema"] != STORE_SCHEMA_VERSION or entry["key"] != cache_key(cell):
            tracer.count("store.misses")
            return None
        tracer.count("store.hits")
        return CellResult(
            cell=cell,
            payload=None,
            wall_seconds=entry["wall_seconds"],
            cached=True,
            trace=self._load_trace(cell),
            runner=entry["runner"],
            records=entry["rows"],
        )

    def _load_trace(self, cell: "CampaignCell") -> Optional[dict]:
        """The cell's flight-record sidecar, if a traced run persisted one."""
        return _read_sidecar(self.trace_path_for(cell))

    def _read_entry(self, path: str) -> Optional[dict]:
        """Parse one entry file; corrupt files are logged, deleted and miss.

        Returns ``None`` for a missing or unreadable file (transient read
        errors just miss) and for a corrupt one: invalid JSON, not an
        object, no integer ``schema``, or a current-schema entry missing a
        field or holding one of the wrong type.  An entry of another schema
        is returned as parsed, for the caller to reject without deleting it.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            return None
        except ValueError as error:
            self._discard_corrupt(path, error)
            return None
        if not isinstance(entry, dict) or not isinstance(entry.get("schema"), int):
            self._discard_corrupt(path, TypeError("entry is not an object with an integer schema"))
            return None
        if entry["schema"] != STORE_SCHEMA_VERSION:
            return entry
        for name, kind in _ENTRY_FIELDS.items():
            if name not in entry or not isinstance(entry[name], kind):
                self._discard_corrupt(path, TypeError(f"field {name!r} is missing or of the wrong type"))
                return None
        if not all(isinstance(row, dict) for row in entry["rows"]):
            self._discard_corrupt(path, TypeError("a row is not an object"))
            return None
        return entry

    def _native_entry(self, path: str) -> Optional[dict]:
        """The entry at ``path`` if this schema and model code wrote it, else ``None``."""
        entry = self._read_entry(path) if path.endswith(_ENTRY_SUFFIX) else None
        return entry if entry is not None and _is_native(entry) else None

    def _is_foreign(self, path: str) -> bool:
        """Whether a file belongs to another schema, other model code or a pickle-era release.

        This is the explicit-GC classifier behind ``prune(schema_foreign=
        True)``.  ``*.pkl`` files are foreign without being opened.  A
        corrupt entry is healed as usual (deleted, not counted as pruned),
        and a transient read error keeps the file off the kill list.
        """
        if path.endswith(_PICKLE_SUFFIX):
            return True
        entry = self._read_entry(path)
        return entry is not None and not _is_native(entry)

    def _discard_corrupt(self, path: str, error: Exception) -> None:
        logger.warning("discarding corrupt store entry %s (%s: %s)", path, type(error).__name__, error)
        current_tracer().count("store.corrupt_healed")
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - racing deleters are fine
            pass

    def save(self, result: "CellResult") -> str:
        """Persist one cell's rows atomically; returns the entry's path.

        Saves are idempotent and last-writer-wins: because a cell's rows are
        a pure function of its identity, two runners racing to save the
        same cell write the same rows and the atomic rename keeps whichever
        landed last.

        A traced result's flight record is written to a JSON *sidecar* next
        to the entry (``<base>.trace.json``, also atomic), so untraced loads
        never pay for trace payloads.
        """
        cell = result.cell
        path = self.path_for(cell)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "code": model_fingerprint(),
            "key": cache_key(cell),
            "runner": self.runner,
            "wall_seconds": result.wall_seconds,
            "stage": cell.stage,
            "service": cell.service,
            "unit": cell.unit,
            "seed": cell.seed,
            "rows": result.records,
        }
        # Insertion order is the canonical order: it is fixed above, and a
        # row's column order is the order its tables and CSVs print.
        _write_atomically(path, json.dumps(entry, sort_keys=False, separators=(",", ":")) + "\n")
        if result.trace is not None:
            trace_path = self.trace_path_for(cell)
            _write_atomically(trace_path, to_canonical_json(result.trace))
            logger.info("flight record written to %s", trace_path)
        current_tracer().count("store.saves")
        return path

    def _files(self, *suffixes: str) -> Iterator[str]:
        """Paths of the files ending in ``suffixes`` under the store root, sorted walk."""
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(name for name in dirnames if name != ".claims")
            for filename in sorted(filenames):
                if filename.endswith(suffixes):
                    yield os.path.join(dirpath, filename)

    def entries(self) -> Iterator[str]:
        """Paths of every entry currently in the store."""
        return self._files(_ENTRY_SUFFIX)

    def _native(self) -> List[Tuple[str, dict]]:
        """``(path, entry)`` of every entry this schema and model code wrote, in listing order.

        Listing order is ``cache ls`` order (see :func:`_listing_key`).
        Corrupt files encountered along the way are logged and deleted
        (exactly as :meth:`load` would); foreign entries are skipped but
        kept on disk.
        """
        found = [(path, self._native_entry(path)) for path in list(self.entries())]
        native = [(path, entry) for path, entry in found if entry is not None]
        return sorted(native, key=lambda item: _listing_key(item[1]))

    def native_entries(self) -> Iterator[dict]:
        """Every entry this schema and model code wrote, in listing order (see :meth:`_native`)."""
        return (entry for _, entry in self._native())

    def flight_records(self) -> Iterator[dict]:
        """The flight record of every native entry that has one, in listing order.

        Sidecars without a native entry (orphans, or another schema's or
        model code's) are not listed: :meth:`load` never reads them either.
        """
        for path, _ in self._native():
            record = _read_sidecar(path[: -len(_ENTRY_SUFFIX)] + _TRACE_SUFFIX)
            if record is not None:
                yield record

    def orphan_sidecars(self) -> Iterator[str]:
        """Flight-record sidecars whose entry no longer exists.

        A sidecar lives and dies with its entry, but an entry can disappear
        without its sidecar — corrupt-entry healing and racing deleters
        unlink only the entry, and a pickle-era sidecar has no JSON entry
        at all.  Such orphans are unreachable (a trace is only ever loaded
        through its entry), so :meth:`prune` sweeps them.
        """
        for sidecar in self._files(_TRACE_SUFFIX):
            if not os.path.exists(sidecar[: -len(_TRACE_SUFFIX)] + _ENTRY_SUFFIX):
                yield sidecar

    def prune(
        self,
        *,
        stage: Optional[str] = None,
        service: Optional[str] = None,
        older_than: Optional[float] = None,
        schema_foreign: bool = False,
    ) -> int:
        """Delete entries matching the given selectors; returns the count.

        ``older_than`` is a TTL in seconds: only entries whose file mtime
        (i.e. the moment their result last landed) is older than that age
        are removed — the store-compaction GC behind ``cloudbench cache rm
        --older-than 7d``.  The age filter runs *first* (a cheap ``stat``),
        so a TTL pass never reads — or heals — entries the cutoff excludes.
        ``schema_foreign`` selects entries written under a *different*
        :data:`STORE_SCHEMA_VERSION` or model code, and ``*.pkl`` files of
        earlier releases — the files the ordinary selectors cannot address
        because their coordinates cannot be trusted; it therefore ignores
        ``stage``/``service`` but still honors ``older_than``.

        With no selector at all every entry file is removed (``cloudbench
        cache rm --all``) — foreign entries and pickles included — along
        with any leftover claim files.

        Every pass also sweeps orphaned flight-record sidecars (see
        :meth:`orphan_sidecars`), subject only to the ``older_than`` cutoff.
        """
        removed = 0
        wipe_all = stage is None and service is None and older_than is None and not schema_foreign
        paths = list(self._files(_ENTRY_SUFFIX, _PICKLE_SUFFIX))
        if older_than is not None:
            cutoff = time.time() - older_than
            aged = []
            for path in paths:
                try:
                    if os.stat(path).st_mtime <= cutoff:
                        aged.append(path)
                except OSError:  # pragma: no cover - racing deleters are fine
                    pass
            paths = aged
        if schema_foreign:
            paths = [path for path in paths if self._is_foreign(path)]
        elif stage is not None or service is not None:
            selected = []
            for path in paths:
                entry = self._native_entry(path)
                if entry is None:
                    continue
                if (stage is None or entry["stage"] == stage) and (service is None or entry["service"] == service):
                    selected.append(path)
            paths = selected
        for path in paths:
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - racing deleters are fine
                pass
            # An entry's flight-record sidecar lives and dies with the entry.
            suffix = _ENTRY_SUFFIX if path.endswith(_ENTRY_SUFFIX) else _PICKLE_SUFFIX
            try:
                os.unlink(path[: -len(suffix)] + _TRACE_SUFFIX)
            except OSError:
                pass
        # Orphaned sidecars (entry already gone) are unreachable garbage
        # with no identity left to match selectors against, so any GC pass
        # sweeps them; only the TTL filter still applies.
        for sidecar in list(self.orphan_sidecars()):
            if older_than is not None:
                try:
                    if os.stat(sidecar).st_mtime > time.time() - older_than:
                        continue
                except OSError:  # pragma: no cover - racing deleters are fine
                    continue
            try:
                os.unlink(sidecar)
                removed += 1
            except OSError:  # pragma: no cover - racing deleters are fine
                pass
        if wipe_all:
            claims = self.claims_root()
            if os.path.isdir(claims):
                # Sorted like every other walk (cf. ClaimBoard.leases): the
                # deletion outcome is order-free, but log/trace order is not.
                for name in sorted(os.listdir(claims)):
                    try:
                        os.unlink(os.path.join(claims, name))
                    except OSError:  # pragma: no cover
                        pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
