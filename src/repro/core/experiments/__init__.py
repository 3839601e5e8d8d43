"""Experiment classes: one per table/figure of the paper's evaluation.

| Module            | Paper artifact                                        |
|-------------------|-------------------------------------------------------|
| ``idle``          | Fig. 1 — background traffic while idle                 |
| ``datacenters``   | Fig. 2 / §3.2 — front-end discovery and geolocation    |
| ``synseries``     | Fig. 3 — cumulative TCP SYNs for 100 × 10 kB uploads   |
| ``delta``         | Fig. 4 — delta-encoding tests                          |
| ``compression``   | Fig. 5 — compression tests                             |
| ``performance``   | Fig. 6 — start-up, completion time, protocol overhead  |

Table 1 (the capability matrix) is produced by
:class:`repro.core.capabilities.CapabilityProber`.
"""
