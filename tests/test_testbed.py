"""Tests for the testbed: folder, FTP driver, test computer, controller."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.filegen.batch import generate_batch
from repro.filegen.binary import generate_binary
from repro.filegen.model import FileKind
from repro.netsim.simulator import NetworkSimulator
from repro.testbed.controller import TestbedController
from repro.testbed.folder import SyncedFolder
from repro.testbed.ftp import FTPDriver
from repro.testbed.testcomputer import TestComputer
from repro.units import KB


class TestSyncedFolder:
    def test_put_and_get(self):
        folder = SyncedFolder()
        file = generate_binary(1000, name="a.bin")
        event = folder.put(file, timestamp=1.0)
        assert event.operation == "create"
        assert folder.get("a.bin").content == file.content
        assert folder.total_bytes() == 1000
        assert "a.bin" in folder

    def test_overwrite_is_a_modify_event(self):
        folder = SyncedFolder()
        file = generate_binary(1000, name="a.bin")
        folder.put(file, timestamp=1.0)
        event = folder.put(file.with_content(b"new"), timestamp=2.0)
        assert event.operation == "modify"
        assert len(folder) == 1

    def test_delete(self):
        folder = SyncedFolder()
        folder.put(generate_binary(10, name="a.bin"), timestamp=1.0)
        folder.delete("a.bin", timestamp=2.0)
        assert len(folder) == 0
        assert folder.events[-1].operation == "delete"
        with pytest.raises(ConfigurationError):
            folder.delete("missing.bin", timestamp=3.0)

    def test_events_record_each_operation_in_order(self):
        folder = SyncedFolder()
        folder.put(generate_binary(10, name="a.bin"), timestamp=5.0)
        folder.put(generate_binary(30, name="a.bin"), timestamp=6.0)
        folder.put(generate_binary(20, name="b.bin"), timestamp=7.0)
        folder.delete("a.bin", timestamp=8.0)
        assert [(e.timestamp, e.operation, e.name, e.size) for e in folder.events] == [
            (5.0, "create", "a.bin", 10),
            (6.0, "modify", "a.bin", 30),
            (7.0, "create", "b.bin", 20),
            (8.0, "delete", "a.bin", 30),
        ]
        assert folder.total_bytes() == 20


class TestTestComputerAndFTP:
    def test_client_required_before_sync(self):
        computer = TestComputer()
        with pytest.raises(ConfigurationError):
            _ = computer.client

    def test_ftp_put_advances_clock_and_records_events(self):
        simulator = NetworkSimulator()
        computer = TestComputer()
        driver = FTPDriver(simulator, computer)
        files = generate_batch(FileKind.BINARY, 5, 100 * KB, prefix="ftp")
        before = simulator.now
        names = driver.put_files(files)
        assert len(names) == 5
        assert simulator.now > before
        assert len(computer.folder.events) == 5
        assert computer.folder.events[0].timestamp <= computer.folder.events[-1].timestamp


class TestController:
    def test_sync_upload_produces_complete_observation(self):
        controller = TestbedController("googledrive")
        controller.start_session()
        files = generate_batch(FileKind.BINARY, 2, 50 * KB, prefix="obs")
        observation = controller.sync_upload(files)
        assert observation.service == "googledrive"
        assert observation.benchmark_bytes == 100 * KB
        assert observation.modification_time is not None
        assert observation.window_start < observation.window_end
        assert not observation.trace.is_empty()
        assert observation.summary is not None
        assert not observation.storage_trace().is_empty()

    def test_session_starts_lazily(self):
        controller = TestbedController("dropbox")
        observation = controller.sync_upload([generate_binary(10 * KB, name="lazy.bin")])
        assert observation.summary.file_count == 1

    def test_idle_observation_with_polling(self):
        controller = TestbedController("clouddrive")
        controller.start_session(polling=True)
        observation = controller.idle(120.0)
        assert observation.trace.total_bytes() > 0
        controller.end_session()

    def test_login_observation_contains_login_traffic(self):
        controller = TestbedController("skydrive")
        observation = controller.start_session()
        assert observation.label == "login"
        assert observation.trace.total_bytes() > 100_000

    def test_delete_observation(self):
        controller = TestbedController("dropbox")
        controller.start_session()
        file = generate_binary(20 * KB, name="gone.bin")
        controller.sync_upload([file])
        observation = controller.delete([file.name])
        assert observation.label == "delete"
        assert controller.backend.list_files(controller.client.user) == []

    def test_modification_time_is_the_first_write_of_each_batch(self):
        controller = TestbedController("googledrive")
        controller.start_session()
        first_files = generate_batch(FileKind.BINARY, 3, 20 * KB, prefix="one")
        second_files = generate_batch(FileKind.BINARY, 2, 20 * KB, prefix="two")
        first = controller.sync_upload(first_files)
        second = controller.sync_upload(second_files)
        events = controller.test_computer.folder.events
        assert [event.name for event in events] == [file.name for file in first_files + second_files]
        # The FTP transfer of the first file is part of start-up (§5.1), and
        # the second batch's reference ignores the first batch's writes.
        assert first.window_start < first.modification_time == events[0].timestamp
        assert second.window_start < second.modification_time == events[3].timestamp
        assert first.window_end <= second.window_start

    def test_delete_goes_through_the_ftp_channel(self):
        controller = TestbedController("dropbox")
        controller.start_session()
        files = generate_batch(FileKind.BINARY, 2, 10 * KB, prefix="del")
        controller.sync_upload(files)
        before = controller.simulator.now
        controller.delete([file.name for file in files])
        deletes = controller.test_computer.folder.events[-2:]
        assert [event.operation for event in deletes] == ["delete", "delete"]
        # One remote command per file, then the folder changes at once.
        expected = before + 2 * controller.ftp.per_operation_delay
        assert all(event.timestamp == pytest.approx(expected) for event in deletes)
        assert len(controller.test_computer.folder) == 0

    def test_pause_between_experiments_advances_time(self):
        controller = TestbedController("wuala")
        controller.start_session()
        before = controller.simulator.now
        controller.pause_between_experiments(300.0)
        assert controller.simulator.now == pytest.approx(before + 300.0)
