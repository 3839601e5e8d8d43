"""Behavioural tests for the five simulated service clients.

These tests validate the *mechanics* the paper documents for each client —
connection management, capability composition, polling, login — from the
traffic a sniffer captures, as the §4 probes do, and from the server-side
namespace.  A deduplicated replica counts as deduplicated when it uploads
less than :data:`DEDUP_FRACTION` of its size; where a service's storage
servers carry none of its control traffic, it uploads exactly nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import threading
from collections import Counter

import pytest

from repro import units
from repro.capture import analysis
from repro.capture.sniffer import Sniffer
from repro.core.workloads import COMPRESSION_SIZES
from repro.errors import ServiceError
from repro.filegen.batch import generate_batch, generate_file
from repro.filegen.binary import generate_binary
from repro.filegen.model import FileKind
from repro.filegen.text import generate_text
from repro.netsim.simulator import NetworkSimulator
from repro.services.registry import SERVICE_NAMES, create_client, register_service_spec, temporary_services
from repro.services.spec import ServiceSpec, builtin_spec
from repro.sync import compression
from repro.sync.chunking import FixedChunker
from repro.units import KB, MB


#: A replica whose storage upload stays below this fraction of its size was
#: deduplicated: the threshold of the §4.3 probe.
DEDUP_FRACTION = 0.1


def make_client(service):
    simulator = NetworkSimulator()
    sniffer = Sniffer(simulator)
    client = create_client(service, simulator)
    client.login()
    return simulator, sniffer, client


def storage_upload(sniffer, client, files):
    """Synchronize ``files``; return the storage-flow trace of that batch alone."""
    sniffer.reset()
    client.sync_files(files)
    return sniffer.trace.to_hosts(client.storage_hostnames)


def uploaded(sniffer, client, files):
    """Payload bytes the client pushes to its storage servers to synchronize ``files``."""
    return storage_upload(sniffer, client, files).uploaded_payload_bytes()


class TestGenericClientBehaviour:
    @pytest.mark.parametrize("service", SERVICE_NAMES)
    def test_sync_commits_files_server_side(self, service):
        _, sniffer, client = make_client(service)
        files = generate_batch(FileKind.BINARY, 3, 20 * KB, prefix=f"{service}_sync")
        assert uploaded(sniffer, client, files) >= 3 * 20 * KB
        records = {record.name: record.size for record in client.backend.list_files(client.user)}
        assert records == {file.name: 20 * KB for file in files}

    @pytest.mark.parametrize("service", SERVICE_NAMES)
    def test_sync_generates_storage_traffic(self, service):
        _, sniffer, client = make_client(service)
        sniffer.reset()
        client.sync_files([generate_binary(50 * KB, name="traffic.bin")])
        storage = sniffer.trace.to_hosts(client.storage_hostnames)
        assert storage.uploaded_payload_bytes() >= 45 * KB

    def test_sync_requires_files(self):
        _, _, client = make_client("dropbox")
        with pytest.raises(ServiceError):
            client.sync_files([])

    def test_login_is_idempotent(self):
        simulator, sniffer, client = make_client("dropbox")
        packets_after_login = len(sniffer.trace)
        client.login()
        assert len(sniffer.trace) == packets_after_login

    def test_delete_files_releases_namespace_but_not_chunks(self):
        _, sniffer, client = make_client("wuala")
        file = generate_binary(30 * KB, name="todelete.bin")
        assert uploaded(sniffer, client, [file]) >= 30 * KB
        client.delete_files([file.name])
        assert client.backend.list_files(client.user) == []
        assert client.backend.chunk_count() >= 1

    def test_disconnect_closes_channels(self):
        _, _, client = make_client("dropbox")
        client.sync_files([generate_binary(10 * KB, name="x.bin")])
        client.disconnect()
        assert client._control_channel is None
        assert client._storage_channel is None


class TestDropbox:
    def test_bundles_small_files_into_few_storage_requests(self):
        _, sniffer, client = make_client("dropbox")
        files = generate_batch(FileKind.BINARY, 50, 10 * KB, prefix="bundle")
        storage = storage_upload(sniffer, client, files)
        # Every storage request carries more than one 10 kB file; the TLS
        # handshake's flights are the only smaller outbound bursts.
        requests = [size for size in analysis.burst_payload_sizes(storage, gap=0.05) if size > 10 * KB]
        assert 0 < len(requests) <= 3
        assert sum(requests) >= 50 * 10 * KB
        assert analysis.count_tcp_connections(storage) == 1
        assert analysis.count_application_bursts(storage, gap=0.05) <= 6

    def test_deduplicates_renamed_copies(self):
        _, sniffer, client = make_client("dropbox")
        original = generate_binary(200 * KB, name="folder1/original.bin")
        assert uploaded(sniffer, client, [original]) >= 200 * KB
        # Dropbox's storage servers carry no control traffic: exactly nothing goes up.
        assert uploaded(sniffer, client, [original.renamed("folder2/replica.bin")]) == 0

    def test_deduplicates_identical_files_within_one_batch(self):
        # Regression: duplicates used to dedup only against *previously
        # synchronized* batches, so a batch containing two identical files
        # uploaded both copies in full (§4.3).
        _, sniffer, client = make_client("dropbox")
        original = generate_binary(200 * KB, name="folder1/original.bin")
        sent = uploaded(sniffer, client, [original, original.renamed("folder2/copy.bin")])
        assert 200 * KB <= sent < (1 + DEDUP_FRACTION) * 200 * KB  # one copy, not two
        # Both namespace entries still commit against the shared chunks.
        assert len(client.backend.list_files(client.user)) == 2

    def test_delta_encoding_on_append(self):
        _, sniffer, client = make_client("dropbox")
        base = generate_binary(1 * MB, name="delta.bin", seed=11)
        assert uploaded(sniffer, client, [base]) >= 1 * MB
        appended = base.with_content(base.content + generate_binary(50 * KB, seed=12).content)
        # The appended file is one chunk with a new digest (Dropbox's chunks
        # are 4 MB), and random bytes do not compress: only a delta can
        # keep its upload this far below its 1.05 MB.
        assert uploaded(sniffer, client, [appended]) < 200 * KB

    def test_compresses_text_always(self):
        _, sniffer, client = make_client("dropbox")
        assert uploaded(sniffer, client, [generate_text(500 * KB, name="doc.txt")]) < 250 * KB

    def test_uses_plain_http_notification_channel(self):
        _, sniffer, client = make_client("dropbox")
        ports = {packet.dst_port for packet in sniffer.trace.outgoing()}
        assert 80 in ports


class TestGoogleDrive:
    def test_one_storage_connection_per_file(self):
        _, sniffer, client = make_client("googledrive")
        sniffer.reset()
        files = generate_batch(FileKind.BINARY, 20, 10 * KB, prefix="gd")
        client.sync_files(files)
        storage = sniffer.trace.to_hosts(client.storage_hostnames)
        assert analysis.count_tcp_connections(storage) == 20

    def test_smart_compression_skips_fake_jpeg(self):
        from repro.filegen.jpeg import generate_fake_jpeg

        _, sniffer, client = make_client("googledrive")
        assert uploaded(sniffer, client, [generate_text(500 * KB, name="a.txt")]) < 250 * KB
        assert uploaded(sniffer, client, [generate_fake_jpeg(500 * KB, name="b.jpg")]) >= 490 * KB


class TestCloudDrive:
    def test_four_connections_per_file(self):
        _, sniffer, client = make_client("clouddrive")
        sniffer.reset()
        files = generate_batch(FileKind.BINARY, 10, 10 * KB, prefix="cd")
        client.sync_files(files)
        # 1 storage + 3 control connections per file (Fig. 3).
        assert analysis.count_tcp_connections(sniffer.trace) == 40

    def test_no_deduplication(self):
        _, sniffer, client = make_client("clouddrive")
        original = generate_binary(100 * KB, name="one.bin")
        first = uploaded(sniffer, client, [original])
        assert first >= 100 * KB
        # The replica costs exactly what the original did.
        assert uploaded(sniffer, client, [original.renamed("two.bin")]) == first

    def test_no_intra_batch_deduplication_either(self):
        # A service without the dedup capability uploads both identical
        # copies even when they arrive in the same batch.
        _, sniffer, client = make_client("clouddrive")
        original = generate_binary(100 * KB, name="one.bin")
        assert uploaded(sniffer, client, [original, original.renamed("two.bin")]) >= 200 * KB

    def test_polling_opens_new_connection_every_15s(self):
        simulator, sniffer, client = make_client("clouddrive")
        client.start_polling()
        sniffer.reset()
        simulator.run_for(120.0)
        # One poll every ~15 s: 7 or 8 fresh connections in two minutes
        # (each poll's own duration slightly shifts the next one).
        assert 7 <= analysis.count_tcp_connections(sniffer.trace) <= 8
        client.stop_polling()


class TestSkyDrive:
    def test_sequential_uploads_with_app_acks(self):
        _, sniffer, client = make_client("skydrive")
        sniffer.reset()
        files = generate_batch(FileKind.BINARY, 8, 20 * KB, prefix="sd")
        client.sync_files(files)
        storage = sniffer.trace.to_hosts(client.storage_hostnames)
        bursts = analysis.count_application_bursts(storage, gap=0.05)
        assert bursts >= 8  # at least one burst per file: no pipelining

    def test_heavy_login(self):
        simulator = NetworkSimulator()
        sniffer = Sniffer(simulator)
        client = create_client("skydrive", simulator)
        client.login()
        assert analysis.count_tcp_connections(sniffer.trace) >= 13
        assert sniffer.trace.total_bytes() > 100_000


class TestWuala:
    def test_encrypted_chunks_still_deduplicate(self):
        _, sniffer, client = make_client("wuala")
        original = generate_binary(300 * KB, name="enc/one.bin")
        assert uploaded(sniffer, client, [original]) >= 300 * KB
        # Wuala's storage servers also carry control traffic, so the replica's
        # storage flows are not empty; they carry no copy of the file.
        assert uploaded(sniffer, client, [original.renamed("enc/two.bin")]) < DEDUP_FRACTION * 300 * KB

    def test_convergent_encryption_deduplicates_within_a_batch(self):
        # Convergent encryption produces identical ciphertexts for identical
        # plaintexts, so intra-batch dedup works on ciphertext digests too.
        _, sniffer, client = make_client("wuala")
        original = generate_binary(300 * KB, name="enc/one.bin")
        sent = uploaded(sniffer, client, [original, original.renamed("enc/two.bin")])
        assert 300 * KB <= sent < (1 + DEDUP_FRACTION) * 300 * KB  # one copy, not two

    def test_restore_after_delete_is_deduplicated(self):
        _, sniffer, client = make_client("wuala")
        original = generate_binary(300 * KB, name="enc/original.bin")
        assert uploaded(sniffer, client, [original]) >= 300 * KB
        client.delete_files([original.name])
        assert uploaded(sniffer, client, [original]) < DEDUP_FRACTION * 300 * KB

    def test_encryption_adds_small_overhead_but_no_compression(self):
        _, sniffer, client = make_client("wuala")
        assert uploaded(sniffer, client, [generate_text(400 * KB, name="enc/doc.txt")]) >= 400 * KB

    def test_quiet_polling(self):
        simulator, sniffer, client = make_client("wuala")
        client.start_polling()
        sniffer.reset()
        simulator.run_for(900.0)
        rate = sniffer.trace.total_bytes() * 8 / 900.0
        assert rate < 150.0
        client.stop_polling()


def session_rows(service, batches, ahead):
    """Every trace row of a fresh client syncing ``batches`` in order.

    With ``ahead``, every file of every batch is handed to ``prepare_ahead``
    before the first sync, as the experiments do.
    """
    simulator, sniffer, client = make_client(service)
    if ahead:
        client.prepare_ahead([file for batch in batches for file in batch])
    for batch in batches:
        client.sync_files(batch)
        simulator.run_for(60.0)
    return sniffer.trace.sorted_columns()


def delta_pair(size, insert_at):
    """A base file and the same file with 100 kB of new bytes inserted at ``insert_at``."""
    base = generate_binary(size, name="delta/document.bin", seed=3)
    change = generate_binary(100 * KB, seed=4).content
    return base, base.with_content(base.content[:insert_at] + change + base.content[insert_at:])


def ahead_cases():
    """The three upload patterns the experiments hand over ahead, as lists of batches."""
    kinds = itertools.cycle([FileKind.TEXT, FileKind.BINARY, FileKind.FAKE_JPEG])
    fig5 = [
        [generate_file(kind, size, name=f"fig5/{size}{kind.extension}", seed=size)]
        for kind, size in zip(kinds, COMPRESSION_SIZES)
    ]
    base, modified = delta_pair(int(2.5 * MB), MB)
    original = generate_binary(1 * MB, name="folder1/original.bin", seed=5)
    return {
        "fig5": fig5,
        "delta": [[base], [modified]],
        "dedup": [[original], [original.renamed("folder2/replica.bin")]],
    }


def _ahead_variant(policy, chunking, encrypted=False):
    """Dropbox's spec with 1 MB chunks, so a few MB make several of them."""
    document = builtin_spec("dropbox").to_dict()
    name = f"ahead-{policy}-{chunking}" + ("-encrypted" if encrypted else "")
    document["name"] = document["display_name"] = name
    document["capabilities"].update(compression=policy, chunking=chunking, chunk_size=1_000_000)
    if encrypted:
        document["capabilities"]["client_side_encryption"] = True
    return ServiceSpec.from_dict(document)


#: Both compressing policies under fixed and variable chunking, plus one
#: client that both compresses and encrypts.  A client that never
#: compresses hands nothing to a thread, so its trace cannot differ (the
#: no-thread test covers it).
AHEAD_VARIANTS = [
    _ahead_variant(policy, chunking)
    for policy, chunking in itertools.product(("always", "smart"), ("fixed", "variable"))
] + [_ahead_variant("always", "fixed", encrypted=True)]


class TestPrepareAhead:
    @pytest.fixture(scope="class", autouse=True)
    def variants(self):
        with temporary_services():
            for spec in AHEAD_VARIANTS:
                register_service_spec(spec)
            yield

    @pytest.fixture(scope="class")
    def cases(self):
        return ahead_cases()

    @pytest.mark.parametrize("case", ["dedup", "delta", "fig5"])
    @pytest.mark.parametrize("service", SERVICE_NAMES + [spec.name for spec in AHEAD_VARIANTS])
    def test_sizing_ahead_captures_the_same_trace(self, pin_cpus, cases, service, case):
        pin_cpus(2)
        batches = cases[case]
        assert session_rows(service, batches, ahead=True) == session_rows(service, batches, ahead=False)

    def test_each_distinct_digest_is_deflated_once(self, monkeypatch, pin_cpus):
        deflated = []
        real = compression.zlib

        class CountingZlib:
            @staticmethod
            def compress(data, level):
                deflated.append(hashlib.sha256(data).hexdigest())
                return real.compress(data, level)

        monkeypatch.setattr(compression, "zlib", CountingZlib)
        pin_cpus(2)
        # Dropbox's first 4 MB chunk is the same in both files; the second differs.
        base, modified = delta_pair(5 * MB, int(4.5 * MB))
        session_rows("dropbox", [[base], [modified]], ahead=False)
        inline = list(deflated)
        deflated.clear()
        session_rows("dropbox", [[base], [modified]], ahead=True)
        chunker = FixedChunker(4 * MB)
        digests = {chunk.digest for file in (base, modified) for chunk in chunker.chunk(file.content)}
        assert len(digests) == 3
        sized = Counter(digest for digest in deflated if digest in digests)
        assert sized == Counter(digest for digest in inline if digest in digests) == dict.fromkeys(digests, 1)
        assert len(deflated) == len(inline)

    def test_more_workers_than_cores_size_every_chunk_as_inline(self, pin_cpus):
        # Google Drive sends each file on its own connection, so a size read
        # under the wrong digest, or before its worker finished, moves a row.
        pin_cpus(8)
        files = [generate_text((10 + index) * KB, name=f"many/{index}.txt", seed=index) for index in range(48)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ahead = session_rows("googledrive", [files], ahead=True)
        finally:
            sys.setswitchinterval(interval)
        assert ahead == session_rows("googledrive", [files], ahead=False)

    @pytest.mark.parametrize("cpus, workers, most", [(8, 1, 8), (8, 4, 2), (8, 8, 1), (1, 1, 1)])
    def test_a_call_starts_at_most_one_thread_per_cpu_of_its_share(self, monkeypatch, pin_cpus, cpus, workers, most):
        # A campaign pool worker counts only its part of the CPUs, so the
        # sizing threads do not multiply with --jobs.
        started = []
        start = threading.Thread.start

        def record(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        monkeypatch.setattr(units, "_cpu_sharers", 1)
        pin_cpus(cpus)
        units.share_cpus(workers)
        files = [generate_text((10 + index) * KB, name=f"many/{index}.txt", seed=index) for index in range(48)]
        assert session_rows("googledrive", [files], ahead=True) == session_rows("googledrive", [files], ahead=False)
        assert 1 <= len(started) <= most

    @pytest.mark.parametrize("service", ["skydrive", "wuala", "clouddrive"])
    def test_no_thread_starts_for_a_client_that_never_compresses(self, pin_cpus, cases, service):
        pin_cpus(2)
        batches = cases["delta"]
        simulator, sniffer, client = make_client(service)
        before = set(threading.enumerate())
        client.prepare_ahead([file for batch in batches for file in batch])
        assert set(threading.enumerate()) - before == set()
        for batch in batches:
            client.sync_files(batch)
            simulator.run_for(60.0)
        assert sniffer.trace.sorted_columns() == session_rows(service, batches, ahead=False)
