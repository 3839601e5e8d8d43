"""Synchronization-engine building blocks.

The capabilities the paper probes in §4 — chunking, bundling, delta
encoding and (smart) compression — are implemented here as reusable
components; client-side deduplication is the client's lookup in the
provider's content-addressed chunk store
(:class:`~repro.services.backend.StorageBackend`).  The per-service client
models in :mod:`repro.services` compose them according to each service's
documented behaviour (Table 1), and the capability probes in
:mod:`repro.core` detect them purely from the traffic they produce.
"""
