"""Service configuration: the ``REPRO_SERVICE_*`` environment surface.

Every operator-facing knob of the serving layer is named here and
declared, with its default and bounds, in the one knob table
:data:`repro.knobs.KNOBS`. Each ``resolve_*`` below is that knob's
:meth:`~repro.knobs.Knob.resolve`: **explicit arguments always win
over the environment** (the library-wide rule, see the canonical env
table in docs/OBSERVABILITY.md), and a bad value raises
:class:`~repro.errors.ServiceError` naming the variable. The knobs
themselves are documented for operators in docs/SERVICE.md.
"""

from __future__ import annotations

from ..knobs import knob

#: Number of shards in the pool.
SHARDS_ENV = "REPRO_SERVICE_SHARDS"
#: Replicas written per reliability stream (1 = the pre-replication
#: single-copy store).
REPLICAS_ENV = "REPRO_SERVICE_REPLICAS"
#: Bounded front-end retry attempts for overload/transient faults.
RETRY_ATTEMPTS_ENV = "REPRO_SERVICE_RETRY_ATTEMPTS"
#: Base backoff delay in milliseconds for front-end retries.
BACKOFF_MS_ENV = "REPRO_SERVICE_BACKOFF_MS"
#: Max repair tickets drained per background repair pass.
REPAIR_BATCH_ENV = "REPRO_REPAIR_BATCH"
#: Concealed-GOP cache admissions survive this many hits before they
#: are expired so a repaired read can replace them.
REPAIR_CACHE_TTL_ENV = "REPRO_REPAIR_CACHE_TTL"
#: Bounded ingest-queue depth; a full queue sheds new ingests.
QUEUE_DEPTH_ENV = "REPRO_SERVICE_QUEUE_DEPTH"
#: Max clips drained from the ingest queue into one encode batch.
INGEST_BATCH_ENV = "REPRO_SERVICE_INGEST_BATCH"
#: Re-read retry depth for detected-uncorrectable blocks on the read
#: path (the service-scoped override of ``REPRO_READ_RETRIES``).
READ_RETRIES_ENV = "REPRO_SERVICE_READ_RETRIES"
#: Scrub interval in days applied to every shard (unset = no scrubbing).
SCRUB_DAYS_ENV = "REPRO_SERVICE_SCRUB_DAYS"
#: Uncorrectable-block events before a shard is quarantined.
QUARANTINE_AFTER_ENV = "REPRO_SERVICE_QUARANTINE_AFTER"
#: Virtual nodes per shard on the placement ring.
VNODES_ENV = "REPRO_SERVICE_VNODES"
#: Decoded-GOP LRU capacity for the random-access read path
#: (0 disables caching without disabling partial reads).
SEEK_CACHE_ENV = "REPRO_SEEK_CACHE"
#: Any value but an off-word (``0``/``false``/``no``/``off``) forces
#: ``get_frame`` onto the whole-clip decode path — the escape hatch if
#: the seek fast path misbehaves.
SEEK_DISABLE_ENV = "REPRO_SEEK_DISABLE"

#: Shard-pool width (default 4).
resolve_shards = knob(SHARDS_ENV).resolve
#: Replicas per stream (default 2).
resolve_replicas = knob(REPLICAS_ENV).resolve
#: Front-end retry bound (default 3 attempts total).
resolve_retry_attempts = knob(RETRY_ATTEMPTS_ENV).resolve
#: Base front-end backoff (default 50 ms, doubled per retry).
resolve_backoff_ms = knob(BACKOFF_MS_ENV).resolve
#: Repair-pass drain width (default 32 tickets per pass).
resolve_repair_batch = knob(REPAIR_BATCH_ENV).resolve
#: Concealed-GOP cache TTL in hits (default 1: serve one hit, then
#: force a re-fetch).
resolve_repair_cache_ttl = knob(REPAIR_CACHE_TTL_ENV).resolve
#: Ingest-queue bound (default 64).
resolve_queue_depth = knob(QUEUE_DEPTH_ENV).resolve
#: Encode-batch drain width (default 8).
resolve_ingest_batch = knob(INGEST_BATCH_ENV).resolve
#: Service read-ladder depth (default 1).
resolve_read_retries = knob(READ_RETRIES_ENV).resolve
#: Shard-quarantine threshold (default 3 uncorrectable-block events).
resolve_quarantine_after = knob(QUARANTINE_AFTER_ENV).resolve
#: Placement-ring virtual nodes (default 64).
resolve_vnodes = knob(VNODES_ENV).resolve
#: Decoded-GOP cache capacity (default 16; 0 disables caching).
resolve_seek_cache = knob(SEEK_CACHE_ENV).resolve
#: Shard scrub interval in days (unset, ``none``, ``off`` or ``never``
#: = no scrubbing).
resolve_scrub_days = knob(SCRUB_DAYS_ENV).resolve
#: True when ``REPRO_SEEK_DISABLE`` forces whole-clip decode.
seek_disabled = knob(SEEK_DISABLE_ENV).resolve
