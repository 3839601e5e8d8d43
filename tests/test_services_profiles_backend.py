"""Tests for the service profiles, the registry and the storage backend."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import StorageBackendError, UnknownServiceError
from repro.geo.locations import TESTBED_LOCATION, find_location
from repro.geo.vantage import rtt_between
from repro.netsim.endpoint import Endpoint
from repro.netsim.link import NetworkPath
from repro.netsim.simulator import NetworkSimulator
from repro.services.backend import StorageBackend
from repro.services.base import CloudStorageClient
from repro.services.profile import ConnectionPolicy, ServerSpec, ServiceCapabilities, ServiceProfile
from repro.services.registry import (
    SERVICE_NAMES,
    create_client,
    get_profile,
    get_spec,
    register_service_spec,
    registered_services,
    temporary_services,
)
from repro.services.spec import ServiceSpec
from repro.sync.compression import CompressionPolicy
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

    @pytest.mark.parametrize("service", SERVICE_NAMES)
    def test_profile_and_its_servers_are_frozen(self, service):
        profile = get_profile(service)
        assert isinstance(profile.control_servers, tuple) and isinstance(profile.storage_servers, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.name = "renamed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.storage_servers = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.primary_storage.rate_up_bps = 1.0

    @pytest.mark.parametrize("service", SERVICE_NAMES)
    def test_memoized_path_and_endpoint_equal_fresh_ones(self, service):
        server = get_profile(service).primary_storage
        for vantage in (TESTBED_LOCATION, find_location("Tokyo")):
            fresh = NetworkPath(
                rtt=rtt_between(vantage, server.datacenter.location, jitter_label=server.hostname),
                uplink_bps=server.rate_up_bps,
                downlink_bps=server.rate_down_bps,
                server_processing=server.server_processing,
            )
            assert server.path_from(vantage) == fresh
            assert server.path_from(vantage) is server.path_from(vantage)
        for host_index in (1, 7):
            fresh = Endpoint(hostname=server.hostname, ip=server.datacenter.address(host_index), port=server.port)
            assert server.endpoint(host_index) == fresh
        # The memos are not fields: an equal server built afresh compares equal.
        assert dataclasses.replace(server) == server

    @pytest.mark.parametrize("service", SERVICE_NAMES)
    def test_login_servers_are_built_once_per_profile(self, service):
        profile = get_profile(service)
        assert profile.login_servers is get_profile(service).login_servers
        control = profile.primary_control
        per_login = tuple(
            ServerSpec(
                hostname=hostname,
                datacenter=control.datacenter,
                rate_up_bps=control.rate_up_bps,
                rate_down_bps=control.rate_down_bps,
                server_processing=control.server_processing,
                port=control.port,
                tls=control.tls,
            )
            for hostname in profile.login_hostnames()
        )
        assert profile.login_servers == per_login
        # Not a field: the profile still equals one built afresh.
        assert dataclasses.replace(profile) == profile

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

    @pytest.mark.parametrize("service", SERVICE_NAMES)
    def test_profile_is_built_once_per_spec(self, service):
        assert get_profile(service) is get_profile(service)

    def test_reregistered_spec_gets_its_own_profile(self):
        original = get_profile("dropbox")
        variant = get_spec("dropbox").to_dict()
        variant["capabilities"]["bundling"] = False
        with temporary_services():
            register_service_spec(ServiceSpec.from_dict(variant))
            replaced = get_profile("dropbox")
            assert replaced is not original
            assert not replaced.capabilities.bundling and original.capabilities.bundling
        assert get_profile("dropbox") is original

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

    def test_negative_chunk_size_raises_before_counting(self, backend):
        with pytest.raises(StorageBackendError):
            backend.store_chunk("d1", -1)
        assert not backend.has_chunk("d1")
        assert backend.bytes_received == 0

    def test_chunk_store_is_shared_across_users(self, backend):
        backend.store_chunk("d1", 500)
        backend.commit_file("alice", "a.bin", 500, ["d1"])
        # Bob's client finds the chunk already stored and commits by reference.
        assert backend.has_chunk("d1")
        backend.commit_file("bob", "copy.bin", 500, ["d1"])
        assert backend.chunk_count() == 1
        assert backend.bytes_stored == 500

    def test_namespaces_are_per_user(self, backend):
        backend.store_chunk("d1", 500)
        backend.commit_file("alice", "a.bin", 500, ["d1"])
        assert backend.list_files("bob") == []
        assert backend.get_file("bob", "a.bin") is None
        with pytest.raises(StorageBackendError):
            backend.delete_file("bob", "a.bin")
        assert not backend.get_file("alice", "a.bin").deleted

    def test_recommit_after_delete_starts_a_new_record(self, backend):
        backend.store_chunk("d1", 500)
        backend.commit_file("user", "a.bin", 500, ["d1"])
        backend.commit_file("user", "a.bin", 500, ["d1"])
        backend.delete_file("user", "a.bin")
        restored = backend.commit_file("user", "a.bin", 500, ["d1"])
        assert restored.revision == 1
        assert not restored.deleted
        assert backend.list_files("user") == [restored]

    def test_commit_copies_the_digest_list(self, backend):
        backend.store_chunk("d1", 500)
        digests = ["d1"]
        record = backend.commit_file("user", "a.bin", 500, digests)
        digests.append("d2")
        assert record.chunk_digests == ["d1"]

    def test_list_files_keeps_commit_order(self, backend):
        backend.store_chunk("d1", 10)
        for name in ("c.bin", "a.bin", "b.bin"):
            backend.commit_file("user", name, 10, ["d1"])
        assert [record.name for record in backend.list_files("user")] == ["c.bin", "a.bin", "b.bin"]
