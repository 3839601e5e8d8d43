"""The benchmarking framework — the paper's primary contribution.

Everything in this package works exclusively from the traffic captured at
the test computer (plus the workloads it generates), exactly like the
paper's testing application:

* :mod:`repro.core.workloads` — the file batches of §2.3/§5 and of the §4
  capability checks;
* :mod:`repro.core.metrics` — synchronization start-up, completion time,
  protocol overhead and throughput, computed from packet traces;
* :mod:`repro.core.capabilities` — traffic-based probes for chunking,
  bundling, deduplication, delta encoding and compression (Table 1);
* :mod:`repro.core.experiments` — one experiment class per figure/table of
  the evaluation;
* :mod:`repro.core.campaign` — the campaign engine: runs every (stage,
  service, unit, seed) cell and merges each seed's cells' rows into one
  :mod:`repro.core.runner` ``SuiteResult``, reduced across seeds by
  :mod:`repro.core.sweep`;
* :mod:`repro.core.report` — plain-text/CSV rendering of the paper's tables
  and figure series.

The package itself holds the defaults that both ``CampaignConfig`` and the
experiments read, so planning a campaign imports no experiment module.
"""

#: Repetitions per (service, workload) when none are given: the default of
#: ``CampaignConfig.repetitions`` and ``PerformanceExperiment``.
DEFAULT_REPETITIONS = 2

#: Open resolvers when none are given: the default of
#: ``CampaignConfig.resolver_count``, ``DataCenterExperiment`` and ``build_world``.
DEFAULT_RESOLVER_COUNT = 300

#: PlanetLab vantage points of the data-center discovery: the default of
#: ``build_world``.
DEFAULT_PLANETLAB_COUNT = 300

#: The two services the paper plots in Fig. 3, the ones with per-file
#: connections: the fixed slots of ``syn_series_services`` in
#: :mod:`repro.core.campaign` and the default of ``SynSeriesExperiment``.
SYN_SERIES_SERVICES = ("clouddrive", "googledrive")
