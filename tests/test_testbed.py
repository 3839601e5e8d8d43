"""Tests for the testbed controller: FTP writes, synced folder, observations."""

from __future__ import annotations

import threading

import pytest

from repro.core.campaign import WHOLE_SERVICE_UNIT, CampaignConfig, CampaignRunner, run_cell
from repro.errors import ConfigurationError, ServiceError
from repro.filegen.batch import generate_batch
from repro.filegen.binary import generate_binary
from repro.filegen.model import FileKind
from repro.filegen.text import generate_text
from repro.services.registry import SERVICE_NAMES
from repro.sync.compression import Compressor
from repro.testbed.controller import FTP_LAN_RATE_BPS, FTP_OPERATION_DELAY, TestbedController
from repro.units import KB


def ftp_delay(file):
    """What the FTP write of ``file`` costs, in the controller's own float expression."""
    return FTP_OPERATION_DELAY + file.size * 8.0 / FTP_LAN_RATE_BPS


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
        assert not observation.storage_trace().is_empty()

    def test_session_starts_lazily(self):
        controller = TestbedController("dropbox")
        observation = controller.sync_upload([generate_binary(10 * KB, name="lazy.bin")])
        assert observation.storage_trace().uploaded_payload_bytes() >= 10 * KB
        assert [record.name for record in controller.backend.list_files(controller.client.user)] == ["lazy.bin"]

    def test_idle_observation_with_polling(self):
        controller = TestbedController("clouddrive")
        controller.start_session(polling=True)
        observation = controller.idle(120.0)
        assert observation.trace.total_bytes() > 0
        controller.end_session()

    @pytest.mark.parametrize("service", SERVICE_NAMES)
    def test_idle_window_leaves_the_last_login_packets_to_the_login(self, service):
        # The login's last response is stamped exactly at its window's end.
        controller = TestbedController(service)
        login = controller.start_session(polling=True)
        idle = controller.idle(600.0)
        assert not idle.trace.is_empty()
        assert idle.trace.first_timestamp() > login.window_end

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
        second_files = generate_batch(FileKind.BINARY, 2, 30 * KB, prefix="two")
        before_first = controller.simulator.now
        first = controller.sync_upload(first_files)
        before_second = controller.simulator.now
        second = controller.sync_upload(second_files)
        # The FTP transfer of the first file is part of start-up (§5.1), and
        # the second batch's reference ignores the first batch's writes.
        assert first.window_start == before_first + 1e-9
        assert first.modification_time == before_first + ftp_delay(first_files[0])
        assert second.window_start == before_second + 1e-9
        assert second.modification_time == before_second + ftp_delay(second_files[0])
        assert first.window_end <= second.window_start

    def test_the_folder_holds_what_ftp_wrote(self):
        controller = TestbedController("wuala")
        files = generate_batch(FileKind.BINARY, 2, 10 * KB, prefix="folder")
        controller.sync_upload(files)
        assert controller.folder == {file.name: file for file in files}
        rewritten = files[0].with_content(b"new")
        controller.sync_upload([rewritten])
        assert controller.folder == {files[0].name: rewritten, files[1].name: files[1]}

    def test_delete_goes_through_the_ftp_channel(self, monkeypatch):
        controller = TestbedController("dropbox")
        files = generate_batch(FileKind.BINARY, 2, 10 * KB, prefix="del")
        controller.sync_upload(files)
        names = [file.name for file in files]
        told = []
        monkeypatch.setattr(
            controller.client, "delete_files", lambda deleted: told.append((list(deleted), controller.simulator.now))
        )
        before = controller.simulator.now
        observation = controller.delete(names)
        # One remote command per name, then the folder changes and the
        # client hears of it, all at once.
        assert told == [(names, before + FTP_OPERATION_DELAY + FTP_OPERATION_DELAY)]
        assert observation.modification_time == observation.window_start == before + 1e-9
        assert controller.folder == {}

    def test_empty_batch_raises_the_clients_service_error(self):
        controller = TestbedController("dropbox")
        controller.start_session()
        before = controller.simulator.now
        with pytest.raises(ServiceError):
            controller.sync_upload([])
        assert controller.simulator.now == before
        assert controller.folder == {}

    @pytest.mark.parametrize(
        "names",
        [["missing.bin"], ["kept.bin", "missing.bin"], ["kept.bin", "kept.bin"]],
        ids=["unknown", "known-then-unknown", "repeated"],
    )
    def test_deleting_an_unknown_name_changes_nothing(self, names):
        controller = TestbedController("dropbox")
        kept = generate_binary(10 * KB, name="kept.bin")
        controller.sync_upload([kept])
        before = controller.simulator.now
        packets = len(controller.sniffer.trace)
        with pytest.raises(ConfigurationError, match="missing.bin|kept.bin"):
            controller.delete(names)
        assert controller.simulator.now == before
        assert controller.folder == {"kept.bin": kept}
        assert len(controller.sniffer.trace) == packets
        assert [record.name for record in controller.backend.list_files(controller.client.user)] == ["kept.bin"]

    def test_pause_between_experiments_advances_time(self):
        controller = TestbedController("wuala")
        controller.start_session()
        before = controller.simulator.now
        controller.pause_between_experiments(300.0)
        assert controller.simulator.now == pytest.approx(before + 300.0)


class SizingError(Exception):
    """What a broken compressor raises."""


def one_cell(stage, unit, service="dropbox"):
    """The campaign cell of ``stage`` x ``service`` x ``unit`` at seed 7."""
    cells = CampaignRunner([service], [stage], seed=7, jobs=1, config=CampaignConfig(repetitions=1)).cells()
    return next(cell for cell in cells if cell.unit == unit)


class TestDeflateAhead:
    """Chunks handed over with ``prepare_ahead`` are sized on worker threads."""

    @pytest.mark.parametrize("ahead", [False, True])
    def test_a_sizing_error_surfaces_from_the_sync_that_reads_it(self, monkeypatch, ahead):
        def broken(self, data):
            raise SizingError("deflate failed")

        monkeypatch.setattr(Compressor, "process", broken)
        controller = TestbedController("dropbox")
        controller.start_session()
        file = generate_text(100 * KB, name="broken.txt")
        if ahead:
            controller.client.prepare_ahead([file])
        with pytest.raises(SizingError, match="deflate failed"):
            controller.sync_upload([file])

    def test_a_sizing_error_fails_the_cell(self, monkeypatch):
        def broken(self, data):
            raise SizingError("deflate failed")

        monkeypatch.setattr(Compressor, "process", broken)
        result = run_cell(one_cell("compression", "text"))
        assert result.failure is not None and result.records == []
        assert (result.failure.error_type, result.failure.message) == ("SizingError", "deflate failed")

    def test_no_sizing_thread_outlives_its_cell(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def record(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        for stage, unit in (("compression", "text"), ("delta", "append"), ("capabilities", WHOLE_SERVICE_UNIT)):
            assert run_cell(one_cell(stage, unit)).failure is None
        assert started
        for thread in started:
            thread.join(timeout=10.0)
        assert [thread for thread in started if thread.is_alive()] == []
