"""Data-center discovery substrate.

The paper locates each service's front-end infrastructure by (§2.1):

1. collecting the DNS names the client contacts,
2. resolving those names through >2,000 open DNS resolvers spread over more
   than 100 countries (geo-DNS returns different front-ends to different
   resolvers),
3. attributing the returned IPs to owners via whois,
4. geolocating each IP with a hybrid of reverse-DNS airport codes, shortest
   RTT to PlanetLab vantage points, and traceroute.

This package provides a simulated world (locations, data centers, IP blocks,
authoritative DNS with geo-routing, open resolvers, PlanetLab nodes) plus
the discovery pipeline itself, so the methodology can be executed end to end
and validated against ground truth.
"""
