"""Tests for the service profiles, the registry and the storage backend."""

from __future__ import annotations

import pytest

from repro.errors import StorageBackendError, UnknownServiceError
from repro.netsim.simulator import NetworkSimulator
from repro.services.backend import StorageBackend
from repro.services.base import CloudStorageClient
from repro.services.profile import ConnectionPolicy, ServiceCapabilities, ServiceProfile
from repro.services.registry import SERVICE_NAMES, create_client, get_profile, registered_services
from repro.sync.chunking import FixedChunker
from repro.sync.compression import CompressionPolicy
from repro.filegen.binary import generate_binary
from repro.units import MB


class TestProfilesMatchTable1:
    """The profiles must encode exactly the capability matrix of Table 1."""

    def test_dropbox_row(self):
        caps = get_profile("dropbox").capabilities
        assert caps.chunking == "fixed" and caps.chunk_size == 4 * MB
        assert caps.bundling and caps.deduplication and caps.delta_encoding
        assert caps.compression is CompressionPolicy.ALWAYS

    def test_skydrive_row(self):
        caps = get_profile("skydrive").capabilities
        assert caps.chunking == "variable"
        assert not caps.bundling and not caps.deduplication and not caps.delta_encoding
        assert caps.compression is CompressionPolicy.NEVER

    def test_wuala_row(self):
        caps = get_profile("wuala").capabilities
        assert caps.chunking == "variable"
        assert caps.deduplication and caps.client_side_encryption
        assert not caps.bundling and not caps.delta_encoding
        assert caps.compression is CompressionPolicy.NEVER

    def test_googledrive_row(self):
        caps = get_profile("googledrive").capabilities
        assert caps.chunking == "fixed" and caps.chunk_size == 8 * MB
        assert caps.compression is CompressionPolicy.SMART
        assert not caps.bundling and not caps.deduplication and not caps.delta_encoding

    def test_clouddrive_row(self):
        caps = get_profile("clouddrive").capabilities
        assert caps.chunking == "none"
        assert not any([caps.bundling, caps.deduplication, caps.delta_encoding])
        assert caps.compression is CompressionPolicy.NEVER

    def test_summary_rows_render_like_table1(self):
        assert get_profile("dropbox").capability_row()["chunking"] == "4 MB"
        assert get_profile("skydrive").capability_row()["chunking"] == "var."
        assert get_profile("clouddrive").capability_row()["chunking"] == "no"
        assert get_profile("googledrive").capability_row()["compression"] == "smart"


class TestProfileStructure:
    @pytest.mark.parametrize("service", SERVICE_NAMES)
    def test_every_profile_has_control_and_storage(self, service):
        profile = get_profile(service)
        assert profile.control_servers and profile.storage_servers
        assert profile.primary_control.hostname in profile.control_hostnames
        assert profile.primary_storage.hostname in profile.storage_hostnames
        assert set(profile.storage_hostnames) <= set(profile.all_hostnames)

    def test_google_primary_storage_is_a_nearby_edge(self):
        profile = get_profile("googledrive")
        assert profile.primary_storage.path_from().rtt < 0.030

    def test_skydrive_storage_is_far_from_europe(self):
        profile = get_profile("skydrive")
        assert profile.primary_storage.path_from().rtt > 0.100

    def test_clouddrive_polls_on_new_connections(self):
        polling = get_profile("clouddrive").polling
        assert polling.new_connection_per_poll
        assert polling.interval == 15.0

    def test_skydrive_login_contacts_13_servers(self):
        profile = get_profile("skydrive")
        assert profile.login.server_count == 13
        assert len(profile.login_hostnames()) == 13

    def test_dropbox_notification_is_plain_http(self):
        notification = get_profile("dropbox").notification_server
        assert notification is not None
        assert notification.port == 80 and not notification.tls

    def test_wuala_control_and_storage_overlap(self):
        profile = get_profile("wuala")
        assert set(profile.control_servers) <= set(profile.storage_servers)

    def test_profile_requires_servers(self):
        with pytest.raises(Exception):
            ServiceProfile(
                name="broken",
                display_name="Broken",
                capabilities=ServiceCapabilities(),
                control_servers=[],
                storage_servers=[],
            )


class TestRegistry:
    def test_five_paper_services_registered(self):
        assert set(SERVICE_NAMES) >= {"dropbox", "skydrive", "wuala", "googledrive", "clouddrive"}
        assert set(registered_services()) >= set(SERVICE_NAMES)

    def test_create_client_builds_working_client(self):
        client = create_client("dropbox", NetworkSimulator())
        assert isinstance(client, CloudStorageClient)
        assert client.profile.name == "dropbox"

    def test_unknown_service_raises(self):
        with pytest.raises(UnknownServiceError):
            get_profile("icloud")
        with pytest.raises(UnknownServiceError):
            create_client("icloud", NetworkSimulator())


class TestStorageBackend:
    def test_store_and_dedup(self, backend):
        assert backend.store_chunk("d1", 1000) is True
        assert backend.store_chunk("d1", 1000) is False
        assert backend.has_chunk("d1")
        assert backend.chunk_count() == 1
        assert backend.bytes_stored == 1000
        assert backend.bytes_received == 2000

    def test_commit_requires_uploaded_chunks(self, backend):
        with pytest.raises(StorageBackendError):
            backend.commit_file("user", "a.bin", 10, ["missing-digest"])

    def test_commit_and_revisions(self, backend):
        backend.store_chunk("d1", 500)
        first = backend.commit_file("user", "a.bin", 500, ["d1"])
        assert first.revision == 1
        backend.store_chunk("d2", 700)
        second = backend.commit_file("user", "a.bin", 700, ["d2"])
        assert second.revision == 2
        assert backend.namespace_bytes("user") == 700

    def test_delete_keeps_chunks(self, backend):
        backend.store_chunk("d1", 500)
        backend.commit_file("user", "a.bin", 500, ["d1"])
        backend.delete_file("user", "a.bin")
        assert backend.get_file("user", "a.bin").deleted
        assert backend.has_chunk("d1")
        assert backend.list_files("user") == []
        assert len(backend.list_files("user", include_deleted=True)) == 1

    def test_delete_unknown_file_raises(self, backend):
        with pytest.raises(StorageBackendError):
            backend.delete_file("user", "ghost.bin")

    def test_missing_chunks_partition(self, backend):
        chunks = FixedChunker(1000).chunk(generate_binary(2500).content)
        backend.store_chunk(chunks[0].digest, chunks[0].length)
        missing = backend.missing_chunks(chunks)
        assert len(missing) == 2
