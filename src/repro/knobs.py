"""The table of every ``REPRO_*`` environment knob the library reads.

Each knob is declared once in :data:`KNOBS`: its name, parser kind,
default, bounds and the error class of the layer that owns it. One
resolver, :meth:`Knob.resolve`, applies the library-wide rule: an
explicit argument wins and is checked against the same bounds;
otherwise the environment variable is parsed; otherwise the default
applies. An unset or blank variable means the default. The modules
that own a knob expose it through their ``*_ENV`` constants and
``resolve_*`` functions, which all end here, so this is the only
module that reads ``os.environ``.

Operators read the same knobs in the canonical env table of
docs/OBSERVABILITY.md; ``tools/check_docs.py`` fails when the table
and :data:`KNOBS` drift apart.

This module imports only :mod:`repro.errors`, so storage, obs, runtime
and service can all use it without an import cycle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Optional, Type

from .errors import AnalysisError, ReproError, ServiceError

# Parser kinds, each named by what a value of that kind must look like.
INT = "an integer"  #: ``>= minimum`` when a minimum is set
FLOAT = "a number"  #: finite, ``>= minimum`` when a minimum is set
OPTIONAL_FLOAT = "a number > 0 or none"  #: None for a :data:`NONE_WORDS` value
FLAG = "a flag"  #: off for an :data:`OFF_WORDS` value, on for anything else
TEXT = "a string"  #: the stripped string as given
INT_LIST = "a comma-separated list of integers"  #: parsed to a tuple

#: Values of a :data:`FLAG` knob that mean off (case-insensitive).
OFF_WORDS = ("", "0", "false", "no", "off")

#: Values of an :data:`OPTIONAL_FLOAT` knob that mean None.
NONE_WORDS = ("none", "off", "never")


@dataclass(frozen=True)
class Knob:
    """One environment knob: name, parser kind, default, bounds, owner."""

    name: str
    kind: str
    default: Any = None
    #: Inclusive lower bound of an :data:`INT` or :data:`FLOAT` knob.
    minimum: Optional[float] = None
    #: Raised, naming the variable and the value, for a bad value.
    error: Type[ReproError] = AnalysisError

    def resolve(self, explicit: Any = None) -> Any:
        """The explicit value, else the environment variable, else the
        default; explicit and environment values are bounds-checked."""
        if explicit is not None:
            return self._check(self._coerce(explicit))
        raw = os.environ.get(self.name, "").strip()
        if not raw:
            return self.default
        return self._check(self._parse(raw))

    def _coerce(self, value: Any) -> Any:
        if self.kind == INT:
            return int(value)
        if self.kind in (FLOAT, OPTIONAL_FLOAT):
            return float(value)
        if self.kind == FLAG:
            return bool(value)
        if self.kind == INT_LIST:
            return tuple(int(item) for item in value)
        return str(value)

    def _parse(self, raw: str) -> Any:
        if self.kind == FLAG:
            return raw.lower() not in OFF_WORDS
        if self.kind == TEXT:
            return raw
        if self.kind == OPTIONAL_FLOAT and raw.lower() in NONE_WORDS:
            return None
        try:
            if self.kind == INT:
                return int(raw)
            if self.kind == INT_LIST:
                return tuple(int(part) for part in raw.split(",") if part.strip())
            return float(raw)
        except ValueError:
            raise self.error(f"{self.name}={raw!r} is not {self.kind}") from None

    def _check(self, value: Any) -> Any:
        if value is None:
            return value
        if self.kind == FLOAT and not math.isfinite(value):
            raise self.error(f"{self.name} must be finite, got {value}")
        if self.kind == OPTIONAL_FLOAT and not value > 0:
            raise self.error(f"{self.name} must be > 0, got {value}")
        if self.minimum is not None and value < self.minimum:
            raise self.error(f"{self.name} must be >= {self.minimum}, got {value}")
        return value


#: Every library knob. The four benchmark/test-only knobs
#: (``REPRO_BENCH_SCALE``, ``REPRO_BENCH_WORKERS``,
#: ``REPRO_REQUIRE_SCALING``, ``REPRO_PRINT_DIGESTS``) are read where
#: they are used, in ``benchmarks/`` and ``tests/``.
KNOBS = (
    # runtime: campaigns and the encode farm
    Knob("REPRO_NUM_WORKERS", INT, 0, 0),
    Knob("REPRO_MAX_RETRIES", INT, 2, 0),
    Knob("REPRO_TRIAL_TIMEOUT", FLOAT, 0.0, 0),
    Knob("REPRO_BATCH_SIZE", INT, 16, 1),
    Knob("REPRO_BATCH_SHM", FLAG, True),
    Knob("REPRO_ARTIFACT_CACHE", FLAG, True),
    # obs
    Knob("REPRO_PROGRESS", FLAG, False),
    Knob("REPRO_TRACE", TEXT),
    # storage
    Knob("REPRO_READ_RETRIES", INT, 0, 0),
    # runtime chaos: unset leaves the ChaosPolicy field default, and
    # ChaosPolicy checks the ranges of what is set
    Knob("REPRO_CHAOS_SEED", INT),
    Knob("REPRO_CHAOS_DEVICE_RATE", FLOAT),
    Knob("REPRO_CHAOS_BURST_RATE", FLOAT),
    Knob("REPRO_CHAOS_BURST_BLOCKS", INT),
    Knob("REPRO_CHAOS_SHARD_STORM", TEXT),
    Knob("REPRO_CHAOS_SHARD_FLAKES", INT_LIST),
    Knob("REPRO_CHAOS_FAIL_TRIALS", INT_LIST),
    Knob("REPRO_CHAOS_CRASH_TRIALS", INT_LIST),
    Knob("REPRO_CHAOS_HANG_TRIALS", INT_LIST),
    Knob("REPRO_CHAOS_SHM_AT", INT),
    Knob("REPRO_CHAOS_JOURNAL_AT", INT),
    # service
    Knob("REPRO_SERVICE_SHARDS", INT, 4, 1, ServiceError),
    Knob("REPRO_SERVICE_REPLICAS", INT, 2, 1, ServiceError),
    Knob("REPRO_SERVICE_RETRY_ATTEMPTS", INT, 3, 1, ServiceError),
    Knob("REPRO_SERVICE_BACKOFF_MS", INT, 50, 0, ServiceError),
    Knob("REPRO_REPAIR_BATCH", INT, 32, 1, ServiceError),
    Knob("REPRO_REPAIR_CACHE_TTL", INT, 1, 0, ServiceError),
    Knob("REPRO_SERVICE_QUEUE_DEPTH", INT, 64, 1, ServiceError),
    Knob("REPRO_SERVICE_INGEST_BATCH", INT, 8, 1, ServiceError),
    Knob("REPRO_SERVICE_READ_RETRIES", INT, 1, 0, ServiceError),
    Knob("REPRO_SERVICE_SCRUB_DAYS", OPTIONAL_FLOAT, None, None, ServiceError),
    Knob("REPRO_SERVICE_QUARANTINE_AFTER", INT, 3, 1, ServiceError),
    Knob("REPRO_SERVICE_VNODES", INT, 64, 1, ServiceError),
    Knob("REPRO_SEEK_CACHE", INT, 16, 0, ServiceError),
    Knob("REPRO_SEEK_DISABLE", FLAG, False, None, ServiceError),
)

_BY_NAME = {entry.name: entry for entry in KNOBS}


def knob(name: str) -> Knob:
    """The declared knob called ``name`` (``KeyError`` if undeclared)."""
    return _BY_NAME[name]
