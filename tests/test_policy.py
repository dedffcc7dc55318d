"""The robustness substrate: faults and checkpoint generations.

Covers the deterministic fault-injection registry
(:mod:`repro.testing.faults`) with a check that every fault point under
``src/repro`` is armed by some test, and the checkpoint store's
two-generation corruption fallback those faults exercise.
"""

from __future__ import annotations

import ast
import os
import pathlib
import pickle
import re

import pytest

from repro import obs
from repro.engine import CheckpointStore
from repro.engine import checkpoint
from repro.sim import cache as sim_cache
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    yield
    faults.disarm()


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
        # a negative nth would show as armed and never fire
        for bad in ("point-only", "p:raise:x", "p:raise:-1"):
            monkeypatch.setenv(faults.ENV_VAR, bad)
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


# -- every fault point is armed by a test ------------------------------------

_REPO = pathlib.Path(__file__).resolve().parent.parent


def _fault_points():
    """``(file, line, point)`` for every ``faults.fire``/``faults.check``
    call under ``src/repro``; ``point`` is None when not a literal."""
    found = []
    for path in sorted((_REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("fire", "check")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "faults"
            ):
                continue
            arg = node.args[0] if node.args else None
            literal = isinstance(arg, ast.Constant) and isinstance(
                arg.value, str
            )
            found.append(
                (path.name, node.lineno, arg.value if literal else None)
            )
    return found


def test_every_fault_point_is_a_literal_armed_by_a_test():
    points = _fault_points()
    assert points, "no fault points found under src/repro"
    tests = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((_REPO / "tests").glob("*.py"))
    )
    problems = []
    for name, line, point in points:
        if point is None:
            problems.append(f"{name}:{line}: fault point is not a literal")
            continue
        # armed via faults.arm("<point>", ...) or a REPRO_FAULTS entry
        # "<point>:kind:nth" (plain or f-string)
        quoted = re.escape(point)
        if not re.search(
            rf"arm\(\s*[\"']{quoted}[\"']|[\"']{quoted}:", tests
        ):
            problems.append(f"{name}:{line}: no test arms {point!r}")
    assert not problems, "\n".join(problems)


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

    def test_load_during_save_reads_the_current_generation(
        self, tmp_path, monkeypatch
    ):
        # A reader racing a save: at every rename the save makes, the
        # key's file is still there, so a load returns the snapshot it
        # replaces and counts no recovery on a healthy store.
        store = CheckpointStore(tmp_path / "ckpt")
        store.save("head", {"gen": 1})
        store.save("head", {"gen": 2})
        real_replace = os.replace
        seen = []

        def racing_replace(src, dst):
            before = obs.counter_value("checkpoint.corrupt_recovered")
            seen.append(store.load("head"))
            assert (
                obs.counter_value("checkpoint.corrupt_recovered") == before
            )
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint.os, "replace", racing_replace)
        store.save("head", {"gen": 3})
        monkeypatch.undo()
        assert len(seen) == 2 and all(v == {"gen": 2} for v in seen)
        assert store.load("head") == {"gen": 3}
        with open(tmp_path / "ckpt" / "head.ckpt.1", "rb") as handle:
            assert pickle.load(handle) == {"gen": 2}
        assert sorted(os.listdir(tmp_path / "ckpt")) == [
            "head.ckpt", "head.ckpt.1",
        ]


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
