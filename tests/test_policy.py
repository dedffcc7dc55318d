"""The robustness substrate: RetryPolicy, Deadline, env parsing, faults.

Covers the one retry/deadline implementation everything routes through
(:mod:`repro.engine.policy`), the validated environment helpers and
their typed :class:`~repro.errors.ConfigError`, the deterministic
fault-injection registry (:mod:`repro.testing.faults`), and the
checkpoint store's two-generation corruption fallback those faults
exercise.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro import obs
from repro.engine import (
    CheckpointStore,
    ClusterExecutor,
    ConfigError,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    env_float,
    env_int,
)
from repro.errors import TransientError
from repro.sim import cache as sim_cache
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    yield
    faults.disarm()


# -- RetryPolicy -------------------------------------------------------------


class TestRetryPolicy:
    def test_grant_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.grant(1)
        assert policy.grant(2)
        assert not policy.grant(3)

    def test_grant_counts_retries(self):
        before = obs.counter_value("policy.retries")
        RetryPolicy(max_attempts=2).grant(1)
        assert obs.counter_value("policy.retries") == before + 1

    def test_classification(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.grant(1, TransientError("x"))
        assert policy.grant(1, ConnectionError())
        assert policy.grant(1, TimeoutError())
        assert policy.grant(1, EOFError())
        assert not policy.grant(1, ValueError("not transient"))
        assert not policy.grant(1, KeyboardInterrupt())

    def test_custom_retryable(self):
        policy = RetryPolicy(max_attempts=5, retryable=(KeyError,))
        assert policy.grant(1, KeyError("k"))
        assert not policy.grant(1, TransientError("x"))

    def test_injected_fault_is_retryable(self):
        assert RetryPolicy().grant(1, faults.InjectedFault("p"))

    def test_backoff_exponential_and_capped(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)
        assert policy.backoff_s(4) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.5)

    def test_backoff_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.1)
        # Same attempt, same delay — reproducible retry schedules.
        assert policy.backoff_s(2) == policy.backoff_s(2)
        assert 0.2 <= policy.backoff_s(2) <= 0.2 * 1.1

    def test_call_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientError("not yet")
            return "done"

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        assert policy.call(flaky) == "done"
        assert len(attempts) == 3

    def test_call_exhausts_budget(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
        calls = []

        def always_fails():
            calls.append(1)
            raise TransientError("again")

        with pytest.raises(TransientError):
            policy.call(always_fails)
        assert len(calls) == 2

    def test_call_does_not_retry_unclassified(self):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("logic error")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5, base_delay_s=0.0).call(boom)
        assert len(calls) == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)


# -- Deadline ----------------------------------------------------------------


class TestDeadline:
    def test_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        assert deadline.remaining() is None
        assert deadline.remaining(0.5) == 0.5
        deadline.check("anything")  # no raise

    def test_remaining_caps_waits(self):
        deadline = Deadline(100.0)
        assert deadline.remaining(0.25) == 0.25
        assert 99.0 < deadline.remaining() <= 100.0

    def test_expiry_raises_typed_and_counts(self):
        before = obs.counter_value("policy.deadline_exceeded")
        deadline = Deadline(0.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="handshake"):
            deadline.check("handshake")
        assert (
            obs.counter_value("policy.deadline_exceeded") == before + 1
        )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_call_honors_deadline(self):
        policy = RetryPolicy(
            max_attempts=100, base_delay_s=0.01, jitter=0.0
        )
        with pytest.raises(DeadlineExceeded):
            policy.call(
                lambda: (_ for _ in ()).throw(TransientError("x")),
                deadline=Deadline(0.05),
                describe="doomed op",
            )


# -- env parsing -------------------------------------------------------------


class TestEnvParsing:
    def test_defaults_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 7) == 7
        assert env_float("REPRO_TEST_KNOB", 1.5) == 1.5

    def test_parses_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "42")
        assert env_int("REPRO_TEST_KNOB", 0) == 42
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
        assert env_float("REPRO_TEST_KNOB", 0.0) == 2.5

    def test_error_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "banana")
        with pytest.raises(ConfigError, match="REPRO_TEST_KNOB"):
            env_int("REPRO_TEST_KNOB", 0)
        with pytest.raises(ConfigError, match="'banana'"):
            env_float("REPRO_TEST_KNOB", 0.0)

    def test_range_checks(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "-3")
        with pytest.raises(ConfigError, match="minimum"):
            env_int("REPRO_TEST_KNOB", 0, minimum=0)
        monkeypatch.setenv("REPRO_TEST_KNOB", "9000")
        with pytest.raises(ConfigError, match="maximum"):
            env_int("REPRO_TEST_KNOB", 0, maximum=100)

    def test_cluster_constructor_validates_env(self, monkeypatch):
        # The original motivation: a junk cluster knob must fail at
        # construction with a typed error naming the variable, not as a
        # bare ValueError deep inside a coordinator tick.
        monkeypatch.setenv("REPRO_CLUSTER_TIMEOUT_S", "banana")
        with pytest.raises(ConfigError, match="REPRO_CLUSTER_TIMEOUT_S"):
            ClusterExecutor(workers=1)
        monkeypatch.setenv("REPRO_CLUSTER_TIMEOUT_S", "-2")
        with pytest.raises(ConfigError, match="minimum"):
            ClusterExecutor(workers=1)


# -- the fault registry ------------------------------------------------------


class TestFaults:
    def test_unarmed_point_is_noop(self):
        assert faults.fire("nothing.armed.here") is None

    def test_raise_on_nth_activation_then_disarms(self):
        faults.arm("unit.point", "raise", nth=2)
        assert faults.fire("unit.point") is None  # activation 1
        with pytest.raises(faults.InjectedFault, match="unit.point"):
            faults.fire("unit.point")  # activation 2
        assert faults.fire("unit.point") is None  # single-shot: disarmed

    def test_nth_zero_fires_every_time(self):
        faults.arm("unit.point", "torn", nth=0)
        assert faults.fire("unit.point") == "torn"
        assert faults.fire("unit.point") == "torn"

    def test_site_interpreted_kind_returned(self):
        faults.arm("unit.point", "custom-kind", nth=1)
        assert faults.fire("unit.point") == "custom-kind"

    def test_once_marker_gates_across_arms(self, tmp_path):
        marker = str(tmp_path / "gate")
        faults.arm("unit.point", "raise", nth=1, once_marker=marker)
        with pytest.raises(faults.InjectedFault):
            faults.fire("unit.point")
        assert os.path.exists(marker)
        # A second arming (another "process") finds the gate taken.
        faults.disarm()
        faults.arm("unit.point", "raise", nth=1, once_marker=marker)
        assert faults.fire("unit.point") is None

    def test_env_arming_and_resync(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "env.point:raise:1")
        with pytest.raises(faults.InjectedFault):
            faults.fire("env.point")
        # Changing the variable re-arms with fresh counters.
        monkeypatch.setenv(faults.ENV_VAR, "env.other:torn:1")
        assert faults.fire("env.point") is None
        assert faults.fire("env.other") == "torn"

    def test_env_parse_rejects_bad_entries(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "point-only")
        with pytest.raises(ValueError, match="REPRO_FAULTS"):
            faults.fire("whatever")

    def test_armed_summary(self):
        faults.arm("unit.a", "raise", nth=3)
        summary = faults.armed()
        assert summary["unit.a"] == ["raise@3"]

    def test_firing_is_counted(self):
        before = obs.counter_value("faults.fired")
        faults.arm("unit.point", "torn", nth=1)
        faults.fire("unit.point")
        assert obs.counter_value("faults.fired") == before + 1


# -- checkpoint generations --------------------------------------------------


class TestCheckpointGenerations:
    def test_rotation_keeps_previous_generation(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save("head", {"gen": 1})
        store.save("head", {"gen": 2})
        assert store.load("head") == {"gen": 2}
        prev = tmp_path / "ckpt" / "head.ckpt.1"
        assert prev.exists()
        with open(prev, "rb") as handle:
            assert pickle.load(handle) == {"gen": 1}

    def test_corrupt_newest_falls_back_and_counts(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save("head", {"gen": 1})
        store.save("head", {"gen": 2})
        with open(tmp_path / "ckpt" / "head.ckpt", "wb") as handle:
            handle.write(b"\x80garbage not a pickle")
        before = obs.counter_value("checkpoint.corrupt_recovered")
        assert store.load("head") == {"gen": 1}
        assert (
            obs.counter_value("checkpoint.corrupt_recovered")
            == before + 1
        )

    def test_torn_fault_kind_recovers_via_fallback(self, tmp_path):
        # The site-interpreted "torn" kind truncates the freshly written
        # snapshot after the atomic rename — a torn write at the worst
        # moment.  The previous generation must still serve.
        store = CheckpointStore(tmp_path / "ckpt")
        store.save("head", {"gen": 1})
        faults.arm("checkpoint.save", "torn", nth=1)
        store.save("head", {"gen": 2})
        assert store.load("head") == {"gen": 1}

    def test_all_generations_corrupt_raises_first_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save("head", {"gen": 1})
        store.save("head", {"gen": 2})
        for name in ("head.ckpt", "head.ckpt.1"):
            with open(tmp_path / "ckpt" / name, "wb") as handle:
                handle.write(b"junk")
        with pytest.raises(Exception):
            store.load("head")

    def test_missing_key_returns_default(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.load("absent") is None
        assert store.load("absent", default=3) == 3

    def test_delete_and_contains_cover_both_generations(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save("head", {"gen": 1})
        store.save("head", {"gen": 2})
        assert "head" in store
        assert store.keys() == ["head"]
        store.delete("head")
        assert "head" not in store
        assert not (tmp_path / "ckpt" / "head.ckpt.1").exists()


# -- sim cache fault point ---------------------------------------------------


class TestSimCacheFault:
    def test_injected_read_failure_evicts_and_misses(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "cache"))
        sim_cache.configure(None)  # defer to the env var
        try:
            assert sim_cache.store("unit", {"payload": 1}, "k")
            assert sim_cache.load("unit", "k") == {"payload": 1}
            faults.arm("sim.cache.load", "raise", nth=1)
            before = obs.counter_value("sim.cache.corrupt")
            # The injected read failure is handled exactly like a
            # corrupt entry: evicted, counted, and a miss — never an
            # error surfaced to the evaluation.
            assert sim_cache.load("unit", "k") is None
            assert (
                obs.counter_value("sim.cache.corrupt") == before + 1
            )
            assert sim_cache.load("unit", "k") is None  # really evicted
        finally:
            sim_cache.configure(None)

    def test_injected_store_failure_leaves_no_name_and_no_temp_file(
        self, tmp_path
    ):
        root = tmp_path / "cache"
        previous = sim_cache.configure(str(root))
        try:
            faults.arm("sim.cache.store", "raise", nth=1)
            fired = obs.counter_value("faults.fired")
            stores = obs.counter_value("sim.cache.store")
            # fired after the pack is written, before its first link
            assert sim_cache.store_many(
                [("unit", ("a",), 1), ("unit", ("b",), 2)]
            ) == 0
            assert obs.counter_value("faults.fired") == fired + 1
            assert obs.counter_value("sim.cache.store") == stores
            assert list(root.iterdir()) == []
            misses = obs.counter_value("sim.cache.miss")
            corrupt = obs.counter_value("sim.cache.corrupt")
            assert sim_cache.load("unit", "a") is None
            assert obs.counter_value("sim.cache.miss") == misses + 1
            assert obs.counter_value("sim.cache.corrupt") == corrupt
            # disarmed after one firing: the next store names its pack
            assert sim_cache.store("unit", 1, "a")
            assert sim_cache.load("unit", "a") == 1
        finally:
            sim_cache.configure(previous)
