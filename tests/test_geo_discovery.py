"""Tests for hybrid geolocation and the discovery pipeline."""

from __future__ import annotations

import pytest

from repro.core.experiments.datacenters import DataCenterExperiment, build_world
from repro.errors import GeolocationError
from repro.geo.datacenters import DataCenterCatalogue, provider_datacenters
from repro.geo.geolocate import HybridGeolocator
from repro.geo.locations import TESTBED_LOCATION
from repro.geo.vantage import Traceroute, build_planetlab_nodes


@pytest.fixture(scope="module")
def world():
    """A small but complete simulated world (module-scoped: it is expensive)."""
    return build_world(resolver_count=200, planetlab_count=60)


class TestHybridGeolocation:
    def test_reverse_dns_signal_preferred(self, world):
        dropbox_storage = provider_datacenters("dropbox")[1]
        estimate = world.geolocator.locate(dropbox_storage.address(1))
        assert estimate.method == "reverse-dns"
        assert estimate.error_km(dropbox_storage.location) < 150

    def test_min_rtt_fallback_for_opaque_ptr(self, world):
        skydrive_storage = provider_datacenters("skydrive")[0]
        estimate = world.geolocator.locate(skydrive_storage.address(1))
        assert estimate.method == "min-rtt"
        # About a hundred kilometres of precision is what the paper expects.
        assert estimate.error_km(skydrive_storage.location) < 400

    def test_traceroute_fallback_when_no_vantage_points_help(self):
        catalogue = DataCenterCatalogue()
        target = provider_datacenters("wuala")[0]
        geolocator = HybridGeolocator(
            planetlab_nodes=build_planetlab_nodes(5),
            reverse_dns_lookup=lambda ip: None,
            traceroute=Traceroute(TESTBED_LOCATION, catalogue.location_of_ip),
            locate_ip=catalogue.location_of_ip,
        )
        estimate = geolocator.locate_by_traceroute(target.address(1))
        assert estimate is not None
        assert estimate.error_km(target.location) < 500

    def test_unroutable_ip_raises(self, world):
        with pytest.raises(GeolocationError):
            world.geolocator.locate("198.51.100.99")


class TestDiscoveryPipeline:
    def test_each_address_is_located_once(self, world):
        # Every resolver returns the same front-ends: each address appears
        # once, sorted, with the resolvers that returned it counted.
        hostnames = ["client.dropbox.com", "dl-client.dropbox.com"]
        report = world.discovery.discover("dropbox", hostnames)
        ips = [front_end.ip for front_end in report.front_ends]
        assert ips == sorted(set(ips))
        assert max(front_end.resolver_count for front_end in report.front_ends) > 1
        for front_end in report.front_ends:
            assert front_end.hostnames == sorted(set(front_end.hostnames))
            assert set(front_end.hostnames) <= set(hostnames)
            assert front_end.estimate == world.geolocator.locate(front_end.ip)
        repeated = world.discovery.discover("dropbox", hostnames + hostnames)
        assert [front_end.ip for front_end in repeated.front_ends] == ips

    def test_centralised_service_discovery(self, world):
        report = world.discovery.discover("dropbox", ["client.dropbox.com", "dl-client.dropbox.com"])
        assert report.distinct_ips >= 2
        assert set(report.owners) == {"Dropbox Inc.", "Amazon Web Services"}
        assert report.distinct_sites <= 3
        assert report.mean_geolocation_error_km() < 400

    def test_google_drive_exposes_over_100_edges(self, world):
        report = world.discovery.discover("googledrive", ["clients6.google.com", "uploads.drive.google.com"])
        assert report.distinct_sites > 100
        assert report.owners == ["Google Inc."]
        assert len(report.countries) > 50

    def test_experiment_rows_include_every_service(self, world):
        result = DataCenterExperiment(resolver_count=200).run(world)
        services = {row["service"] for row in result.rows()}
        assert services == {"dropbox", "skydrive", "wuala", "clouddrive", "googledrive"}
        assert len(result.google_edge_sites()) > 100
        reports = result.reports
        # §3.2 ownership: Cloud Drive runs on AWS alone, SkyDrive on
        # Microsoft's own sites, and Wuala owns none of its data centers.
        assert reports["clouddrive"].owners == ["Amazon Web Services"]
        assert reports["skydrive"].owners == ["Microsoft Corporation"]
        assert all("wuala" not in owner.lower() for owner in reports["wuala"].owners)
        # §3.2 placement: SkyDrive's control reaches a Singapore site.
        assert "Singapore" in reports["skydrive"].countries
        # §2.1: the hybrid geolocation keeps the paper's ~100 km precision.
        for name, report in reports.items():
            error = report.mean_geolocation_error_km()
            assert error is not None and error < 400, name

    def test_wuala_sites_are_all_european(self, world):
        result = world.discovery.discover("wuala", ["storage1.wuala.com", "storage3.wuala.com", "storage4.wuala.com"])
        assert set(result.countries) <= {"Germany", "Switzerland", "France"}
