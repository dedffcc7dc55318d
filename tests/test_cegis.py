"""Counterexample-guided checking: near-miss discrimination, the
distinguishing-input set, falsification search, and configuration.

Two layers, mirroring the module split:

* :mod:`repro.vgen.mutate` — near-miss operators produce valid,
  interface-preserving mutants;
* :mod:`repro.vereval.cegis` — the CEGIS checker is a strict refinement
  of the legacy checker (candidate-for-candidate over the full problem
  set and mutated vgen families), the falsification search kills a
  hand-built trap that survives 384 cycles of random stimulus, and the
  persisted distinguishing set round-trips byte-stably (hypothesis),
  :func:`~repro.vereval.cegis.configure` is the only switch, and CEGIS
  on and off share one golden bundle.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.sim import elaborate
from repro.sim import cache as sim_cache
from repro.utils.rng import DeterministicRNG
from repro.vereval import EvalProblem, build_problem_set, reset_caches
from repro.vereval import cegis, harness
from repro.verilog import parse_source
from repro.vgen import (
    GeneratedModule,
    ModuleInterface,
    MUTATION_KINDS,
    generate_family,
    mutate,
    random_style,
)


# -- helpers -----------------------------------------------------------------


def _clear_cegis_state():
    reset_caches()
    assert not harness._GOLDEN_CACHE and not cegis._SET_CACHE
    assert not cegis._CLEAR_MEMO and not cegis._GOLDEN_SWEEP_CACHE


@pytest.fixture()
def cache_dir(tmp_path):
    """Isolated sim-cache disk tier + pristine CEGIS state."""
    previous = sim_cache.configure(str(tmp_path))
    _clear_cegis_state()
    try:
        yield str(tmp_path)
    finally:
        sim_cache.configure(previous)
        _clear_cegis_state()


@pytest.fixture()
def cegis_on(cache_dir):
    """CEGIS enabled with cheap search parameters."""
    config = cegis.CegisConfig(
        enabled=True, search_rounds=2, search_lanes=8
    )
    previous = cegis.configure(config)
    try:
        yield config
    finally:
        cegis.configure(previous)


def _legacy_config():
    return cegis.CegisConfig(enabled=False)


def _family_module(family, seed=0x5EED):
    rng = DeterministicRNG(seed).fork(family)
    return generate_family(
        family, rng, random_style(DeterministicRNG(seed).fork("style", family))
    )


def _problem(module, problem_id, cycles=48, seed=11):
    return EvalProblem(
        problem_id=problem_id,
        module=module,
        stimulus_cycles=cycles,
        stimulus_seed=seed,
    )


# A 4-stage 32-bit pipeline with an equality trap: the mutant diverges
# only when d == 2^32-1, which ~never happens under uniform random
# stimulus (P ≈ 2^-32 per cycle) but is the first boundary episode the
# falsification search tries.
TRAP_GOLDEN = """module cegis_trap(
  input wire clk,
  input wire rst,
  input wire [31:0] d,
  output wire [31:0] q,
  output wire [31:0] acc
);
  reg [31:0] s0;
  reg [31:0] s1;
  reg [31:0] s2;
  reg [31:0] a;
  always @(posedge clk) begin
    if (rst) begin
      s0 <= 32'd0;
      s1 <= 32'd0;
      s2 <= 32'd0;
      a <= 32'd0;
    end else begin
      s0 <= d;
      s1 <= s0 ^ (s0 >> 3);
      s2 <= s1 + 32'd1;
      a <= a + s2;
    end
  end
  assign q = s2;
  assign acc = a;
endmodule
"""

TRAP_MUTANT = TRAP_GOLDEN.replace(
    "s0 <= d;", "s0 <= (d == 32'd4294967295) ? 32'd1 : d;"
)


def _trap_problem(cycles=384, name_suffix="", trap_value=None, width=32):
    source = TRAP_GOLDEN
    name = "cegis_trap"
    if name_suffix:
        new_name = f"cegis_trap{name_suffix}"
        source = source.replace(name, new_name)
        name = new_name
    interface = ModuleInterface(
        module_name=name,
        clock="clk",
        reset="rst",
        inputs=[("d", width)],
        outputs=[("q", width), ("acc", width)],
    )
    module = GeneratedModule(
        family="handmade",
        source=source,
        interface=interface,
        description="pipeline with an equality trap",
        params={},
    )
    return EvalProblem(
        problem_id=f"trap{name_suffix}",
        module=module,
        stimulus_cycles=cycles,
        stimulus_seed=3,
    )


# -- mutation operators ------------------------------------------------------


class TestMutate:
    def test_sequential_family_yields_all_kinds(self):
        module = _family_module("counter")
        kinds = {m.kind for m in mutate(module)}
        assert kinds == set(MUTATION_KINDS)

    def test_combinational_family_has_no_clocked_mutants(self):
        module = _family_module("mux")
        kinds = {m.kind for m in mutate(module)}
        assert "reset_polarity" not in kinds
        assert "blocking" not in kinds

    def test_mutants_parse_elaborate_and_keep_interface(self):
        for family in ("counter", "fifo", "shift_register", "traffic_fsm"):
            module = _family_module(family)
            golden = elaborate(parse_source(module.source), module.name)
            for mutant in mutate(module):
                assert mutant.source != module.source
                design = elaborate(parse_source(mutant.source), module.name)
                assert [
                    (s.name, s.width) for s in design.inputs
                ] == [(s.name, s.width) for s in golden.inputs]
                assert [
                    (s.name, s.width) for s in design.outputs
                ] == [(s.name, s.width) for s in golden.outputs]

    def test_blocking_mutation_spares_relational_operators(self):
        module = _family_module("counter")
        source = module.source.replace(
            "endmodule", "  wire cmp;\n  assign cmp = 1'b0 <= 1'b1;\nendmodule"
        )
        patched = GeneratedModule(
            family=module.family,
            source=source,
            interface=module.interface,
            description=module.description,
            params=module.params,
        )
        blocking = [m for m in mutate(patched) if m.kind == "blocking"]
        assert blocking and "= 1'b0 <= 1'b1" in blocking[0].source


# -- verdict refinement ------------------------------------------------------


def _mutant_candidates(module):
    """Golden + every near-miss mutant + one hard-broken candidate."""
    candidates = [module.source]
    candidates.extend(m.source for m in mutate(module))
    candidates.append(
        module.source.replace("endmodule", "  assign __x = 1; endmodule")
    )
    return candidates


SEQ_FAMILIES = (
    "counter", "edge_detector", "fifo", "shift_register",
    "traffic_fsm", "lfsr", "register_file",
)


class TestRefinement:
    def test_strict_refinement_on_vgen_family_mutants(self, cegis_on):
        """Candidate-for-candidate: legacy kill ⇒ CEGIS kill."""
        extra_kills = 0
        for family in SEQ_FAMILIES:
            module = _family_module(family)
            problem = _problem(module, f"refine-{family}")
            candidates = _mutant_candidates(module)
            previous = cegis.configure(_legacy_config())
            try:
                _clear_cegis_state()
                legacy = harness.check_candidates_lockstep(
                    problem, candidates
                )
            finally:
                cegis.configure(previous)
            _clear_cegis_state()
            adversarial = harness.check_candidates_lockstep(
                problem, candidates
            )
            for old, new in zip(legacy, adversarial):
                if not old[0]:
                    assert not new[0], (family, old, new)
                if old[0] and not new[0]:
                    extra_kills += 1
        assert extra_kills >= 0  # measured below with a seeded trap

    def test_strict_refinement_on_problem_set(self, cegis_on):
        """Every vereval problem: legacy verdicts survive candidate-for-
        candidate, goldens keep passing."""
        for problem in build_problem_set():
            candidates = [
                problem.golden_source,
                problem.golden_source.replace(";", ";;", 1),  # still parses?
                "module wrong(); endmodule",
            ]
            previous = cegis.configure(_legacy_config())
            try:
                _clear_cegis_state()
                legacy = harness.check_candidates_lockstep(
                    problem, candidates
                )
            finally:
                cegis.configure(previous)
            _clear_cegis_state()
            adversarial = harness.check_candidates_lockstep(
                problem, candidates
            )
            assert adversarial[0][0], problem.problem_id
            for old, new in zip(legacy, adversarial):
                if not old[0]:
                    assert not new[0], (problem.problem_id, old, new)

    def test_disabled_config_is_the_legacy_checker(self, cache_dir):
        module = _family_module("counter")
        problem = _problem(module, "legacy-identity")
        candidates = _mutant_candidates(module)
        previous = cegis.configure(_legacy_config())
        try:
            first = harness.check_candidates_lockstep(problem, candidates)
            _clear_cegis_state()
            second = harness.check_candidates_lockstep(problem, candidates)
        finally:
            cegis.configure(previous)
        assert first == second


# -- falsification search ----------------------------------------------------


class TestFalsificationSearch:
    def test_trap_survives_legacy_dies_to_search(self, cegis_on):
        """The acceptance trap: 384 random cycles pass, search kills."""
        problem = _trap_problem()
        previous = cegis.configure(_legacy_config())
        try:
            passed, _ = harness.check_candidate_source(problem, TRAP_MUTANT)
        finally:
            cegis.configure(previous)
        assert passed  # the legacy checker is blind to the trap
        _clear_cegis_state()
        passed, reason = harness.check_candidate_source(problem, TRAP_MUTANT)
        assert not passed and reason == "mismatch"
        ds = cegis.distinguishing_set(problem)
        assert len(ds) == 1
        assert ds.entries[0].origin.startswith("search:")

    def test_set_kills_duplicate_trap_cheaply(self, cegis_on):
        problem = _trap_problem()
        harness.check_candidate_source(problem, TRAP_MUTANT)
        before = obs.counter_value("cegis.set_kills")
        searches = obs.counter_value("cegis.searches")
        passed, _ = harness.check_candidate_source(
            problem, TRAP_MUTANT + "// variant\n"
        )
        assert not passed
        assert obs.counter_value("cegis.set_kills") == before + 1
        # the kill came from the set, not a fresh search
        assert obs.counter_value("cegis.searches") == searches

    def test_minted_vector_is_minimized(self, cegis_on):
        problem = _trap_problem()
        harness.check_candidate_source(problem, TRAP_MUTANT)
        entry = cegis.distinguishing_set(problem).entries[0]
        # divergence reaches q after the 3-stage latency; minimization
        # keeps the prefix, not the whole 384-cycle episode
        assert entry.cycles <= 8
        assert len(entry.trace) == entry.cycles

    def test_clear_search_is_memoized(self, cegis_on):
        problem = _trap_problem(cycles=48)
        # an equivalent respelling: the golden's own token stream passes
        # on its digest and is never searched
        source = problem.golden_source.replace("s0 <= d;", "s0 <= (d);")
        harness.check_candidate_source(problem, source)
        clears = obs.counter_value("cegis.search_clear")
        skipped = obs.counter_value("cegis.search_skipped")
        # same source again: the disk/memo marker skips the search
        harness._GOLDEN_CACHE.clear()
        harness.check_candidate_source(problem, source)
        assert obs.counter_value("cegis.search_clear") == clears
        assert obs.counter_value("cegis.search_skipped") > skipped

    def test_near_miss_suite_measures_extra_kills(self, cegis_on):
        """CEGIS kills everything scalar kills plus the seeded traps."""
        scalar_kills = 0
        cegis_kills = 0
        problems = [(_trap_problem(), TRAP_MUTANT)]
        for family in ("counter", "fifo", "edge_detector"):
            module = _family_module(family)
            problem = _problem(module, f"nearmiss-{family}", cycles=384)
            problems.extend(
                (problem, mutant.source) for mutant in mutate(module)
            )
        for problem, candidate in problems:
            previous = cegis.configure(_legacy_config())
            try:
                _clear_cegis_state()
                old, _ = harness.check_candidate_source(problem, candidate)
            finally:
                cegis.configure(previous)
            _clear_cegis_state()
            new, _ = harness.check_candidate_source(problem, candidate)
            if not old:
                scalar_kills += 1
                assert not new  # refinement
            if not new:
                cegis_kills += 1
        assert cegis_kills >= scalar_kills + 1  # the trap is extra


# -- distinguishing-set persistence (hypothesis) -----------------------------


def _width_trap_problem(width, trap_value):
    """Parametric trap: q == d+1 except when d equals the trap value."""
    hi = (1 << width) - 1
    trap_value &= hi
    name = f"fuzz_trap_w{width}_v{trap_value}"
    golden = f"""module {name}(
  input wire clk,
  input wire rst,
  input wire [{width - 1}:0] d,
  output wire [{width - 1}:0] q
);
  reg [{width - 1}:0] r;
  always @(posedge clk) begin
    if (rst)
      r <= {width}'d0;
    else
      r <= d + {width}'d1;
  end
  assign q = r;
endmodule
"""
    # on the trap value the mutant holds d instead of d+1 — never equal
    # to the golden's d+1 (mod 2^width), so the trap is always observable
    mutant = golden.replace(
        f"r <= d + {width}'d1;",
        f"r <= (d == {width}'d{trap_value}) ? d : d + {width}'d1;",
    )
    interface = ModuleInterface(
        module_name=name,
        clock="clk",
        reset="rst",
        inputs=[("d", width)],
        outputs=[("q", width)],
    )
    module = GeneratedModule(
        family="fuzz",
        source=golden,
        interface=interface,
        description="fuzz trap",
        params={},
    )
    problem = EvalProblem(
        problem_id=name, module=module, stimulus_cycles=16, stimulus_seed=9
    )
    return problem, mutant


class TestDistinguishingSetFuzz:
    @settings(max_examples=12, deadline=None)
    @given(
        width=st.integers(min_value=2, max_value=12),
        trap=st.integers(min_value=0, max_value=(1 << 12) - 1),
    )
    def test_replay_passes_golden_fails_minting_mutant(self, width, trap):
        """Every persisted vector: golden replays clean, the mutant that
        minted it keeps failing."""
        import tempfile

        previous = sim_cache.configure(tempfile.mkdtemp())
        config = cegis.CegisConfig(
            enabled=True, search_rounds=2, search_lanes=8
        )
        prior = cegis.configure(config)
        _clear_cegis_state()
        try:
            problem, mutant = _width_trap_problem(width, trap)
            # boundary traps (0 / max) die to round 0; interior values
            # may legitimately survive the bounded search
            harness.check_candidate_source(problem, mutant)
            ds = cegis.distinguishing_set(problem)
            ref = harness._golden_ref(problem)
            golden_design = ref.design
            mutant_design = elaborate(
                parse_source(mutant), problem.module.name
            )
            for entry in ds:
                golden_verdict = cegis._check_entry(
                    ref, entry, golden_design, problem
                )
                assert golden_verdict.equivalent
                mutant_verdict = cegis._check_entry(
                    ref, entry, mutant_design, problem
                )
                assert not mutant_verdict.equivalent
        finally:
            cegis.configure(prior)
            sim_cache.configure(previous)
            _clear_cegis_state()

    @settings(max_examples=20, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=16),
        cycles=st.integers(min_value=1, max_value=6),
        n_entries=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_is_byte_stable_across_backend_version(
        self, width, cycles, n_entries, seed
    ):
        """store→load→re-encode is the identity on the payload bytes,
        and those bytes do not depend on BACKEND_VERSION (which lives in
        the cache envelope, not the payload)."""
        import tempfile

        rng = DeterministicRNG(seed)
        hi = (1 << width) - 1
        ds = cegis.DistinguishingSet()
        for index in range(n_entries):
            ds.add(
                cegis.DistinguishingVector.from_run(
                    vectors=[
                        {"d": rng.fork("v", index, c).randint(0, hi)}
                        for c in range(cycles)
                    ],
                    output_names=("q",),
                    trace=[
                        (rng.fork("t", index, c).randint(0, hi),)
                        for c in range(cycles)
                    ],
                    origin=f"fuzz:{index}",
                )
            )
        blob = cegis.set_bytes(ds)
        previous = sim_cache.configure(tempfile.mkdtemp())
        try:
            sim_cache.store("cegis-set", cegis.encode_set(ds), "k", str(seed))
            loaded = cegis.decode_set(
                sim_cache.load("cegis-set", "k", str(seed))
            )
            assert loaded is not None
            assert cegis.set_bytes(loaded) == blob
            # the payload bytes are independent of the envelope version
            original_version = sim_cache.BACKEND_VERSION
            sim_cache.BACKEND_VERSION = original_version + 1
            try:
                assert cegis.set_bytes(loaded) == blob
                # a bumped version evicts the envelope (stale artifacts
                # never deserialize), it does not corrupt reads
                assert sim_cache.load("cegis-set", "k", str(seed)) is None
            finally:
                sim_cache.BACKEND_VERSION = original_version
        finally:
            sim_cache.configure(previous)

    def test_persisted_set_merges_across_saves(self, cegis_on):
        problem, mutant = _width_trap_problem(8, 255)
        harness.check_candidate_source(problem, mutant)
        minted = cegis.distinguishing_set(problem)
        assert len(minted) >= 1
        # a "different worker" (fresh in-process state) stores a new
        # vector; both survive the merge
        cegis._SET_CACHE.clear()
        other = cegis.distinguishing_set(problem)
        extra = cegis.DistinguishingVector.from_run(
            vectors=[{"d": 1}],
            output_names=("q",),
            trace=[(2,)],
            origin="other-worker",
        )
        other.add(extra)
        cegis._save_set(problem, other)
        cegis._SET_CACHE.clear()
        merged = cegis.distinguishing_set(problem)
        origins = {entry.origin for entry in merged}
        assert "other-worker" in origins
        assert any(origin.startswith("search:") for origin in origins)

    def test_set_capacity_is_enforced(self):
        ds = cegis.DistinguishingSet()
        for index in range(5):
            added = ds.add(
                cegis.DistinguishingVector.from_run(
                    vectors=[{"d": index}],
                    output_names=("q",),
                    trace=[(index,)],
                ),
                max_set=3,
            )
            assert added == (index < 3)
        assert len(ds) == 3


# -- one golden bundle per problem -------------------------------------------


class TestOneGoldenBundle:
    def test_cegis_on_and_off_share_one_golden_bundle(self, cache_dir):
        module = _family_module("counter")
        problem = _problem(module, "one-bundle", cycles=64, seed=5)
        previous = cegis.configure(_legacy_config())
        try:
            assert harness.check_candidate_source(
                problem, problem.golden_source
            ) == (True, "")
            legacy_ref = harness._golden_ref(problem)
        finally:
            cegis.configure(previous)
        previous = cegis.configure(
            cegis.CegisConfig(enabled=True, search_rounds=0)
        )
        try:
            # in memory: the same object
            assert harness._golden_ref(problem) is legacy_ref
            # on disk: the bundle the CEGIS-off check stored is a hit
            harness._GOLDEN_CACHE.clear()
            pack = []
            on_ref = harness._golden_ref(problem, pack)
            assert pack == []
        finally:
            cegis.configure(previous)
        assert on_ref is not legacy_ref
        assert (on_ref.rows, on_ref.trace) == (
            legacy_ref.rows, legacy_ref.trace
        )

    def test_bundle_with_dropped_coverage_slots_still_hits(
        self, cache_dir, monkeypatch
    ):
        module = _family_module("edge_detector")
        problem = _problem(module, "old-slots", cycles=64, seed=5)
        candidates = _mutant_candidates(module)
        previous = sim_cache.configure(None)
        try:
            expected = harness.check_candidates_lockstep(problem, candidates)
        finally:
            sim_cache.configure(previous)
        _clear_cegis_state()
        ref = harness._GoldenRef(problem)
        slots = {
            name: getattr(ref, name) for name in harness._GoldenRef.__slots__
        }
        # the bundle layout before the coverage slots were dropped
        old_layout = {**slots, "coverage": None, "full_cycles": len(ref.rows)}
        with monkeypatch.context() as patch:
            patch.setattr(
                harness._GoldenRef, "__getstate__",
                lambda self: (None, old_layout),
            )
            assert sim_cache.store(
                "golden-ref", ref, *harness._golden_disk_key(problem)
            )
        pack = []
        loaded = harness._golden_ref(problem, pack)
        assert pack == []  # a disk hit, not a rebuild
        assert not hasattr(loaded, "coverage")
        assert not hasattr(loaded, "full_cycles")
        assert harness.check_candidates_lockstep(
            problem, candidates
        ) == expected


# -- configuration, fingerprint, worker plumbing -----------------------------


def _one_problem_plan():
    from repro.evalkit import EvalPlan, PassAtKTask
    from repro.llm import LanguageModel
    from repro.vereval import EvalConfig

    model = LanguageModel.pretrain(
        "demo", ["module m(input a, output y); assign y = ~a; endmodule"]
    )
    task = PassAtKTask(
        build_problem_set(n_problems=1),
        EvalConfig(n_samples=1, ks=(1,), temperatures=(0.4,)),
    )
    return EvalPlan([model], [task])


class TestConfigPlumbing:
    def test_environment_does_not_reach_the_config(self, monkeypatch):
        # configure() is the only switch: CEGIS-looking variables, one
        # of them malformed, change neither the config nor the plan
        # fingerprint.
        plan = _one_problem_plan()
        before = (cegis.active_config(), plan.fingerprint())
        monkeypatch.setenv("REPRO_SIM_CEGIS", "1")
        monkeypatch.setenv("REPRO_SIM_CEGIS_MAX_SET", "banana")
        assert (cegis.active_config(), plan.fingerprint()) == before
        assert before[0] == cegis.CegisConfig()

    def test_fingerprint_token_tracks_config(self):
        assert cegis.CegisConfig().fingerprint_token() == "off"
        on = cegis.CegisConfig(enabled=True)
        assert on.fingerprint_token().startswith("on:")
        assert (
            cegis.CegisConfig(enabled=True, max_set=8).fingerprint_token()
            != on.fingerprint_token()
        )

    def test_plan_fingerprint_covers_cegis_token(self):
        # The checkpoint resume guard: the same plan under another CEGIS
        # configuration must not read as the same plan.
        plan = _one_problem_plan()
        fingerprints = {}
        for config in (
            _legacy_config(),
            cegis.CegisConfig(enabled=True),
            cegis.CegisConfig(enabled=True, max_set=8),
        ):
            previous = cegis.configure(config)
            try:
                fingerprints[config.fingerprint_token()] = plan.fingerprint()
            finally:
                cegis.configure(previous)
        assert len(set(fingerprints.values())) == 3
        # default resolves the live config (off in this test process)
        assert plan.fingerprint() == fingerprints["off"]

    def test_check_stage_reapplies_config_after_unpickle(self, cache_dir):
        from repro.evalkit.stages import CheckStage

        config = cegis.CegisConfig(enabled=True, max_set=5)
        previous = cegis.configure(config)
        try:
            stage = CheckStage({}, cache_dir=cache_dir)
        finally:
            cegis.configure(previous)
        assert stage.cegis_config == config
        blob = pickle.dumps(stage)
        prior = cegis.configure(_legacy_config())
        try:
            pickle.loads(blob)
            # unpickling re-applied the captured config process-wide
            assert cegis.active_config() == config
        finally:
            cegis.configure(prior)

    def test_old_check_stage_pickles_still_load(self, cache_dir):
        from repro.evalkit.stages import CheckStage

        stage = CheckStage({}, cache_dir=cache_dir)
        state = stage.__getstate__() if hasattr(
            stage, "__getstate__"
        ) else dict(stage.__dict__)
        state.pop("cegis_config", None)  # a pre-CEGIS payload
        rebuilt = CheckStage.__new__(CheckStage)
        prior = cegis.configure(None)
        try:
            rebuilt.__setstate__(state)
            assert not cegis.active_config().enabled
        finally:
            cegis.configure(prior)
