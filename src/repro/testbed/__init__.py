"""The measurement testbed (§2).

The paper's setup has two parts: a *test computer* running the
application-under-test inside a VM, and a *testing application* that drives
it remotely (creating and modifying files over FTP) while all exchanged
traffic is captured.  This package models both parts:

* :class:`~repro.testbed.folder.SyncedFolder` /
  :class:`~repro.testbed.testcomputer.TestComputer` — the watched folder and
  the machine hosting the client under test,
* :class:`~repro.testbed.ftp.FTPDriver` — the remote file-manipulation
  channel used by the testing application (its small transfer delay is the
  measurement artifact the paper mentions in §5.1),
* :class:`~repro.testbed.controller.TestbedController` — wires simulator,
  sniffer, backend, client and driver together and exposes the operations
  experiments are made of.
"""
