"""Tests for locations, data centers, DNS, whois and vantage points."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.geo.datacenters import DataCenterCatalogue, DataCenterRole, google_edge_nodes, provider_datacenters
from repro.geo.dns import AuthoritativeDNS, DNSRecord, GeoDNSPolicy, ReverseDNS, build_resolver_set
from repro.geo.locations import TESTBED_LOCATION, all_locations, find_location, haversine_km
from repro.geo.vantage import PlanetLabNode, Traceroute, build_planetlab_nodes, rtt_between
from repro.geo.whois import WhoisDatabase


class TestLocations:
    def test_catalogue_covers_more_than_100_countries(self):
        assert len({location.country for location in all_locations()}) > 100

    def test_find_by_city_and_airport_code(self):
        assert find_location("Enschede") is TESTBED_LOCATION
        assert find_location("sjc").city == "San Jose"
        assert find_location("nowhere") is None

    def test_haversine_known_distance(self):
        # Amsterdam to New York is roughly 5,850 km.
        ams = find_location("Amsterdam")
        jfk = find_location("New York")
        assert 5_500 < ams.distance_km(jfk) < 6_200

    def test_haversine_zero_for_same_point(self):
        assert haversine_km(52.0, 6.0, 52.0, 6.0) == pytest.approx(0.0)

    def test_airport_codes_unique_enough_for_lookup(self):
        codes = [location.airport_code for location in all_locations()]
        assert len(codes) == len(set(codes))


class TestDataCenters:
    def test_paper_reported_sites(self):
        dropbox = provider_datacenters("dropbox")
        assert {dc.location.city for dc in dropbox} == {"San Jose", "Ashburn"}
        assert any(dc.owner == "Amazon Web Services" for dc in dropbox)
        wuala = provider_datacenters("wuala")
        assert all(dc.location.country in {"Germany", "Switzerland", "France"} for dc in wuala)
        assert all("wuala" not in dc.owner.lower() for dc in wuala)
        skydrive = provider_datacenters("skydrive")
        assert any(dc.location.country == "Singapore" and dc.roles == frozenset({DataCenterRole.CONTROL}) for dc in skydrive)
        clouddrive = provider_datacenters("clouddrive")
        assert {dc.location.city for dc in clouddrive} == {"Dublin", "Ashburn", "Boardman"}

    def test_unknown_provider_raises(self):
        with pytest.raises(ConfigurationError):
            provider_datacenters("icloud")

    def test_google_has_more_than_100_edges(self):
        edges = google_edge_nodes()
        assert len(edges) > 100
        assert len({edge.ip_prefix for edge in edges}) == len(edges)

    def test_catalogue_ip_lookup(self):
        catalogue = DataCenterCatalogue()
        dropbox_control = provider_datacenters("dropbox")[0]
        ip = dropbox_control.address(7)
        assert catalogue.find_by_ip(ip).name == dropbox_control.name
        assert catalogue.location_of_ip(ip).city == "San Jose"
        assert catalogue.find_by_ip("9.9.9.9") is None

    def test_address_bounds(self):
        datacenter = provider_datacenters("dropbox")[0]
        with pytest.raises(ConfigurationError):
            datacenter.address(0)


class TestDNS:
    def test_static_record_resolves_to_site_prefix(self):
        datacenter = provider_datacenters("dropbox")[0]
        dns = AuthoritativeDNS()
        dns.add_record(DNSRecord(hostname="client.dropbox.com", datacenters=[datacenter]))
        answers = dns.resolve("client.dropbox.com", TESTBED_LOCATION)
        assert answers and all(answer.startswith(datacenter.ip_prefix) for answer in answers)

    def test_nearest_edge_policy_returns_nearby_site(self):
        dns = AuthoritativeDNS()
        dns.add_record(DNSRecord(hostname="drive.google.com", datacenters=google_edge_nodes(), policy=GeoDNSPolicy.NEAREST_EDGE))
        answer_eu = dns.resolve("drive.google.com", find_location("Amsterdam"))
        answer_asia = dns.resolve("drive.google.com", find_location("Tokyo"))
        assert answer_eu != answer_asia
        catalogue = DataCenterCatalogue()
        assert catalogue.location_of_ip(answer_eu[0]).distance_km(find_location("Amsterdam")) < 1_000

    def test_unknown_name_resolves_to_nothing(self):
        assert AuthoritativeDNS().resolve("unknown.example", TESTBED_LOCATION) == []

    def test_record_requires_datacenters(self):
        with pytest.raises(ConfigurationError):
            AuthoritativeDNS().add_record(DNSRecord(hostname="x.example", datacenters=[]))

    def test_resolver_set_spans_the_world(self):
        resolvers = build_resolver_set(2000)
        assert len(resolvers) == 2000
        countries = {resolver.location.country for resolver in resolvers}
        isps = {resolver.isp for resolver in resolvers}
        assert len(countries) > 100
        assert len(isps) > 400
        assert len({resolver.ip for resolver in resolvers}) == 2000

    def test_reverse_dns_embeds_airport_code_for_google(self):
        edges = google_edge_nodes()
        reverse = ReverseDNS(edges)
        hostname = reverse.lookup(edges[0].address(1))
        assert hostname is not None
        assert edges[0].location.airport_code.lower() in hostname

    def test_reverse_dns_opaque_for_microsoft(self):
        skydrive = provider_datacenters("skydrive")
        reverse = ReverseDNS(skydrive)
        hostname = reverse.lookup(skydrive[0].address(1))
        assert hostname is not None
        assert skydrive[0].location.airport_code.lower() not in hostname

    def test_reverse_dns_unknown_ip(self):
        assert ReverseDNS([]).lookup("10.0.0.1") is None


class TestWhois:
    def test_owner_lookup(self):
        catalogue = DataCenterCatalogue()
        whois = WhoisDatabase(catalogue.all())
        dropbox_storage = provider_datacenters("dropbox")[1]
        assert whois.owner_of(dropbox_storage.address(3)) == "Amazon Web Services"
        assert whois.owner_of("203.0.113.77") == "unknown"
        record = whois.lookup(dropbox_storage.address(3))
        assert record.country == "United States"


class TestVantage:
    def test_rtt_grows_with_distance(self):
        near = rtt_between(TESTBED_LOCATION, find_location("Amsterdam"))
        far = rtt_between(TESTBED_LOCATION, find_location("San Jose"))
        assert near < far
        assert 0.100 < far < 0.220

    def test_planetlab_nodes_build(self):
        nodes = build_planetlab_nodes(50)
        assert len(nodes) == 50
        assert all(isinstance(node, PlanetLabNode) for node in nodes)

    def test_rtt_to_ip_uses_ground_truth(self):
        catalogue = DataCenterCatalogue()
        node = PlanetLabNode(name="pl-ams", location=find_location("Amsterdam"))
        wuala_site = provider_datacenters("wuala")[0]
        rtt = node.rtt_to_ip(wuala_site.address(1), catalogue.location_of_ip)
        assert rtt < 0.030

    def test_traceroute_last_hop_near_target(self):
        catalogue = DataCenterCatalogue()
        traceroute = Traceroute(TESTBED_LOCATION, catalogue.location_of_ip)
        target = provider_datacenters("skydrive")[0]
        location = traceroute.last_known_location(target.address(1))
        assert location is not None
        assert location.distance_km(target.location) < 500
