"""The knob table: every ``REPRO_*`` knob is declared once and resolves
one way (explicit value, else environment, else default)."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

from repro import knobs, obs, runtime, storage
from repro.errors import AnalysisError, ServiceError
from repro.knobs import FLAG, FLOAT, INT, INT_LIST, KNOBS, OPTIONAL_FLOAT, TEXT
from repro.runtime import ChaosPolicy, chaos_policy_from_env
from repro.service import config as service_config

REPO = Path(__file__).resolve().parents[1]

#: (env text, its parsed value, an explicit value that differs) per kind.
_VALID = {
    INT: ("5", 5, 7),
    FLOAT: ("0.5", 0.5, 0.25),
    OPTIONAL_FLOAT: ("2.5", 2.5, 1.0),
    TEXT: ("shard-1", "shard-1", "other"),
    INT_LIST: ("1, 3", (1, 3), [2]),
}

#: Env texts every knob of a kind must reject, besides those below its
#: minimum. Flags and strings accept any text.
_GARBAGE = {
    INT: ("lots", "2.5"),
    FLOAT: ("lots", "inf", "nan"),
    OPTIONAL_FLOAT: ("lots", "0", "-1"),
    INT_LIST: ("one,two",),
}


def _valid(knob):
    if knob.kind == FLAG:
        return ("off", False, True) if knob.default else ("1", True, False)
    return _VALID[knob.kind]


def _bad_env(knob):
    values = list(_GARBAGE.get(knob.kind, ()))
    if knob.minimum is not None:
        values.append(str(knob.minimum - 1))
    return values


@pytest.fixture(autouse=True)
def _no_knobs_set(monkeypatch):
    for knob in KNOBS:
        monkeypatch.delenv(knob.name, raising=False)


class TestTable:
    def test_names_are_unique(self):
        names = [knob.name for knob in KNOBS]
        assert len(names) == len(set(names)) == 34

    def test_only_the_table_reads_the_environment(self):
        """No module but ``repro.knobs`` reads ``os.environ``, and every
        ``REPRO_*`` name the sources mention is a declared knob."""
        declared = {knob.name for knob in KNOBS}
        mention = re.compile(r"REPRO_[A-Z0-9_]+(?![A-Z0-9_*])")
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            if path.name == "knobs.py":
                continue
            text = path.read_text(encoding="utf-8")
            assert "os.environ" not in text and "getenv" not in text, path
            assert set(mention.findall(text)) <= declared, path

    @pytest.mark.parametrize("module, error", [
        (service_config, ServiceError),
        (runtime, AnalysisError),
        (obs, AnalysisError),
        (storage, AnalysisError),
    ])
    def test_public_env_names_are_knobs_of_their_owner(self, module,
                                                        error):
        names = [getattr(module, attr) for attr in dir(module)
                 if attr.endswith("_ENV")]
        assert names
        for name in names:
            assert knobs.knob(name).error is error, name


@pytest.mark.parametrize("knob", KNOBS, ids=lambda knob: knob.name)
class TestEveryKnob:
    def test_unset_gives_default(self, knob):
        assert knob.resolve() == knob.default

    def test_blank_env_gives_default(self, knob, monkeypatch):
        monkeypatch.setenv(knob.name, "  ")
        assert knob.resolve() == knob.default

    def test_env_value_is_parsed(self, knob, monkeypatch):
        raw, parsed, _ = _valid(knob)
        monkeypatch.setenv(knob.name, raw)
        assert knob.resolve() == parsed

    def test_explicit_wins_over_env(self, knob, monkeypatch):
        raw, _, explicit = _valid(knob)
        monkeypatch.setenv(knob.name, raw)
        expected = tuple(explicit) if knob.kind == INT_LIST else explicit
        assert knob.resolve(explicit) == expected

    def test_bad_env_raises_owner_error_naming_variable(self, knob,
                                                        monkeypatch):
        bad = _bad_env(knob)
        if not bad:
            assert knob.kind in (FLAG, TEXT)
            return
        for raw in bad:
            monkeypatch.setenv(knob.name, raw)
            with pytest.raises(knob.error, match=knob.name):
                knob.resolve()

    def test_explicit_below_minimum_raises(self, knob):
        if knob.minimum is None:
            return
        with pytest.raises(knob.error, match=knob.name):
            knob.resolve(knob.minimum - 1)


class TestBooleanKnobs:
    """All four boolean knobs take the same off-words."""

    @pytest.mark.parametrize("word", ["off", "false", "no", "OFF"])
    @pytest.mark.parametrize("name, feature_on", [
        ("REPRO_BATCH_SHM", runtime.shared_memory_enabled),
        ("REPRO_ARTIFACT_CACHE", lambda: runtime.session_cache().enabled),
        ("REPRO_PROGRESS", obs.resolve_progress),
        ("REPRO_SEEK_DISABLE", service_config.seek_disabled),
    ])
    def test_off_words_turn_the_feature_off(self, monkeypatch, name,
                                            feature_on, word):
        monkeypatch.setenv(name, word)
        try:
            assert feature_on() is False
        finally:
            monkeypatch.delenv(name)
            runtime.session_cache()


class TestBatchSize:
    @pytest.mark.parametrize("raw", ["0", "-4"])
    def test_env_below_one_fails_closed(self, monkeypatch, raw):
        monkeypatch.setenv(runtime.BATCH_SIZE_ENV, raw)
        with pytest.raises(AnalysisError, match="REPRO_BATCH_SIZE"):
            runtime.resolve_batch_size()

    def test_explicit_below_one_fails_closed(self):
        with pytest.raises(AnalysisError, match="REPRO_BATCH_SIZE"):
            runtime.resolve_batch_size(0)

    def test_one_is_accepted(self):
        assert runtime.resolve_batch_size(1) == 1


class TestChaosPolicyFromEnv:
    def test_every_chaos_knob_sets_its_field(self, monkeypatch):
        for name, raw in [
            ("REPRO_CHAOS_SEED", "9"),
            ("REPRO_CHAOS_DEVICE_RATE", "0.25"),
            ("REPRO_CHAOS_BURST_RATE", "0.5"),
            ("REPRO_CHAOS_BURST_BLOCKS", "3"),
            ("REPRO_CHAOS_SHARD_STORM", "shard-2"),
            ("REPRO_CHAOS_SHARD_FLAKES", "0,5"),
            ("REPRO_CHAOS_FAIL_TRIALS", "1"),
            ("REPRO_CHAOS_CRASH_TRIALS", "2"),
            ("REPRO_CHAOS_HANG_TRIALS", "0, 4"),
            ("REPRO_CHAOS_SHM_AT", "6"),
            ("REPRO_CHAOS_JOURNAL_AT", "3"),
        ]:
            monkeypatch.setenv(name, raw)
        assert chaos_policy_from_env() == ChaosPolicy(
            seed=9, device_fault_rate=0.25, device_burst_rate=0.5,
            device_burst_blocks=3, shard_storm="shard-2",
            shard_flake_reads=(0, 5), fail_trials=(1,), crash_trials=(2,),
            hang_trials=(0, 4), shm_fail_at=6, journal_tear_at=3)

    def test_burst_blocks_alone_arms_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_BURST_BLOCKS", "8")
        assert chaos_policy_from_env() is None

    def test_policy_range_checks_still_apply(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_BURST_RATE", "0.5")
        monkeypatch.setenv("REPRO_CHAOS_BURST_BLOCKS", "0")
        with pytest.raises(AnalysisError, match="device_burst_blocks"):
            chaos_policy_from_env()


def _check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsDriftCheck:
    def test_repo_tables_match_the_knob_table(self):
        assert _check_docs().check_knob_tables(REPO) == []

    def test_drift_is_reported(self, tmp_path):
        (tmp_path / "docs").mkdir()
        observability = (REPO / "docs" / "OBSERVABILITY.md").read_text(
            encoding="utf-8")
        observability = observability.replace(
            "| `REPRO_MAX_RETRIES` | `2` |", "| `REPRO_MAX_RETRIES` | `3` |")
        observability = re.sub(r"\| `REPRO_PROGRESS` \|[^\n]*\n", "",
                               observability)
        observability = observability.replace(
            "| `REPRO_TRACE` |",
            "| `REPRO_NUM_WORKERS` | `0` | again |\n| `REPRO_TRACE` |")
        (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
            observability, encoding="utf-8")
        service = (REPO / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        (tmp_path / "docs" / "SERVICE.md").write_text(
            service.replace("REPRO_SERVICE_VNODES", "REPRO_SERVICE_NODES"),
            encoding="utf-8")
        problems = "\n".join(_check_docs().check_knob_tables(tmp_path))
        assert "REPRO_MAX_RETRIES default" in problems
        assert "REPRO_PROGRESS has 0 rows" in problems
        assert "REPRO_NUM_WORKERS has 2 rows" in problems
        assert "REPRO_SERVICE_NODES is not a knob" in problems
