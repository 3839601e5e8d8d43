"""Shared pytest fixtures."""

from __future__ import annotations

import os

import pytest

from repro.capture.sniffer import Sniffer
from repro.netsim.endpoint import Endpoint
from repro.netsim.link import NetworkPath
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.tls import TLSParameters
from repro.services.backend import StorageBackend
from repro.units import mbps


@pytest.fixture
def simulator() -> NetworkSimulator:
    """A fresh network simulator."""
    return NetworkSimulator()


@pytest.fixture
def sniffer(simulator: NetworkSimulator) -> Sniffer:
    """A sniffer already attached to the simulator."""
    return Sniffer(simulator)


@pytest.fixture
def server_endpoint() -> Endpoint:
    """A generic cloud server endpoint."""
    return Endpoint(hostname="storage.example.com", ip="192.0.2.10", port=443)


@pytest.fixture
def fast_path() -> NetworkPath:
    """A short, fast path (European data center)."""
    return NetworkPath(rtt=0.020, uplink_bps=mbps(50), downlink_bps=mbps(100), server_processing=0.01)


@pytest.fixture
def slow_path() -> NetworkPath:
    """A long, slow path (transatlantic)."""
    return NetworkPath(rtt=0.150, uplink_bps=mbps(4), downlink_bps=mbps(20), server_processing=0.03)


@pytest.fixture
def tls() -> TLSParameters:
    """Default TLS parameters."""
    return TLSParameters()


@pytest.fixture
def backend() -> StorageBackend:
    """A fresh storage backend."""
    return StorageBackend("testservice")


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin_cpus(n)`` makes this process report ``n`` usable CPUs, as ``taskset`` would."""

    def pin(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return pin
