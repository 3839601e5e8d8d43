"""Simulated personal cloud storage services.

A service is a declarative :class:`~repro.services.spec.ServiceSpec`: which
capabilities its client implements (Table 1), where its control and storage
servers sit (§3.2), how it manages TCP/TLS connections (§4.2), how it polls
its control plane while idle (§3.1) and how long its local processing takes.
One generic engine, :class:`~repro.services.base.CloudStorageClient`,
interprets every spec's :class:`~repro.services.profile.ServiceProfile`.
The benchmarking framework in :mod:`repro.core` never reads the specs — it
measures the traffic the clients generate, so the same probes can be pointed
at any new service (register a spec, see :mod:`repro.services.registry`).

The five services of the paper are the spec files under ``specs/``.  What
the paper reports about each, and so what its spec encodes:

* **Dropbox** (v2.0.8) — the most sophisticated client: 4 MB fixed
  chunking, bundling of small files, always-on compression, client-side
  deduplication and per-chunk delta encoding (Table 1).  Control servers
  owned by Dropbox in the San Jose area, storage on Amazon Web Services in
  Northern Virginia (§3.2).  A separate notification channel over plain
  HTTP (§3.1), polled roughly once per minute (≈82 b/s of background
  traffic); the spec opens it with ``login.notification_subscribe_bytes``.
  The fastest service to start synchronizing single files, slightly delayed
  on large batches by its bundling strategy, which then pays off with a ×4
  completion-time win for 100 × 10 kB (Fig. 6).  The highest protocol
  overhead among the well-behaved services (47 % for a 100 kB file),
  attributed to the signalling cost of its capabilities (§5.3).
* **SkyDrive** (v17.0.2006.0314) — variable chunk sizes, no bundling, no
  compression, no deduplication, no delta encoding (Table 1).  Data centers
  near Seattle (storage) and in Southern Virginia (storage and control),
  plus a control-only destination in Singapore (§3.2) — roughly 160 ms away
  from the European testbed, which hurts single-file uploads.  The heaviest
  login of all services: about 150 kB exchanged with 13 different Microsoft
  Live servers, four times more than the others (§3.1).  Files are
  submitted sequentially, each waiting for an application-layer
  acknowledgement (§4.2).  By far the slowest synchronization start-up: at
  least 9 s, growing past 20 s for a 100-file batch (Fig. 6a).
* **Wuala** (version "Strasbourg") — the only service encrypting data on
  the client side; encryption is convergent, so two identical files produce
  identical ciphertexts and deduplication keeps working (§4.3, §6).
  Variable chunk sizes, deduplication, no bundling, no compression, no
  delta encoding (Table 1) — although deduplication of unchanged chunks
  partially compensates for the missing delta encoding (Fig. 4).  Control
  and storage are *not* separated onto different servers (the spec lists
  the same hosts in both roles), so storage flows are identified by flow
  sizes and connection sequences (§3.1); some storage operations even run
  over plain HTTP because content is already encrypted locally.  All four
  data centers are in Europe (two near Nuremberg, Zurich, Northern
  France), none owned by Wuala itself — which makes it one of the fastest
  services from the European testbed (§3.2, §5.2).  The quietest background
  behaviour: one poll roughly every 5 minutes (≈60 b/s, §3.1).
* **Google Drive** (v1.9.4536.8202) — 8 MB fixed chunks, no bundling,
  *smart* compression (content is inspected and recognised JPEG payloads
  are not recompressed), no deduplication, no delta encoding (Table 1,
  §4.5).  Client TCP connections terminate at the nearest of more than 100
  Google edge nodes (about 15 ms away from the European testbed; the spec's
  ``nearest_edge`` placement) and traffic then rides Google's private
  backbone (§3.2, Fig. 2), which makes single-file uploads very fast
  (≈300 ms for 1 MB, ≈26 Mb/s).  But one separate TCP and SSL connection is
  opened *per file*, so the edge-node advantage is wiped out on
  many-small-file workloads — 100 connections and ≈42 s for 100 × 10 kB,
  with twice as much traffic as the actual data (§4.2, §5, Figs. 3 and 6).
  Lightweight background polling every ~40 s (≈42 b/s, §3.1).
* **Amazon Cloud Drive** (v2.0.2013.841) — the most simplistic client: no
  chunking, no bundling, no compression, no deduplication, no delta
  encoding (Table 1).  Three AWS data centers: Ireland and Northern
  Virginia for control and storage, Oregon for storage only (§3.2); from
  Europe the client talks to the Irish site.  Extremely wasteful connection
  management: one TCP/SSL connection per file for storage plus three
  control connections per file operation, i.e. 400 connections for 100
  files, which takes about 55–60 s (Fig. 3, §4.2, §5.2).  The worst
  background behaviour: a poll every 15 seconds, each on a brand new HTTPS
  connection — about 6 kb/s, roughly 65 MB per day of signalling traffic
  for an idle client (§3.1, Fig. 1).  Consequently a protocol overhead an
  order of magnitude above everyone else: more than 5 MB exchanged to
  commit 1 MB of content (§5.3), from the spec's verbose ``message_sizes``.
"""
