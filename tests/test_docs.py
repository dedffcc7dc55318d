"""The documentation executes: README/docs code blocks and API doctests.

Runs :mod:`tools.check_docs` (the same entry point CI uses) so the
quickstart, the architecture examples, and the simulation-API docstring
examples fail tier-1 the moment they stop matching the code.
"""

import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docs.py"


def test_readme_and_docs_code_blocks_execute():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    blocks = check_docs.extract_blocks(REPO_ROOT / "README.md")
    assert blocks, "README.md has no python code blocks"
    # The full check runs in a subprocess so doc blocks cannot leak
    # state (default-backend switches, caches) into the test session.
    result = subprocess.run(
        [sys.executable, str(CHECKER)],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        timeout=600,
    )
    assert result.returncode == 0, (
        f"docs check failed:\n{result.stdout}\n{result.stderr}"
    )


def test_extractor_sees_fences_and_languages(tmp_path):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    doc = tmp_path / "doc.md"
    doc.write_text(
        "intro\n```python\nx = 1\n```\n"
        "```bash\nexit 1\n```\n"
        "```python\ny = 2\n```\n"
    )
    blocks = check_docs.extract_blocks(doc)
    assert [code.strip() for _, code in blocks] == ["x = 1", "y = 2"]
    assert [lineno for lineno, _ in blocks] == [3, 9]


def test_env_table_must_match_the_knobs_read_under_src(tmp_path):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        'import os\nA = os.environ.get("REPRO_ALPHA")  # one of REPRO_ALPHA_*\n'
    )
    doc = tmp_path / "architecture.md"
    table = "## Environment variables\n\n| Variable | Effect |\n| --- | --- |\n"
    doc.write_text(table + "| `REPRO_ALPHA` | x |\n\n## Next\n| `REPRO_Z` | y |\n")
    assert check_docs.check_env_table(src, doc)
    doc.write_text(table)  # knob added without its row
    assert not check_docs.check_env_table(src, doc)
    doc.write_text(table + "| `REPRO_ALPHA` | x |\n| `REPRO_GONE` | y |\n")
    assert not check_docs.check_env_table(src, doc)  # knob removed, row left
    # the repository itself is in step
    assert check_docs.check_env_table(
        REPO_ROOT / "src", REPO_ROOT / "docs" / "architecture.md"
    )


def test_docs_must_name_only_paths_that_exist(tmp_path):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Run `benchmarks/bench_funnel.py` or any `benchmarks/bench_fig*.py`;\n"
        "results land in benchmarks/results/, the ledger is\n"
        "benchmarks/perf/run.py, references\n"
        "`benchmarks/perf/expected/seed_<n>.json`.\n"
        "src/repro/tests/gone.py is not a repository-root path.\n"
    )
    assert check_docs.missing_paths(doc) == []
    doc.write_text(
        "intro\nThe ratio lives in `benchmarks/bench_sim_perf.py`.\n"
        "See tests/test_gone.py::TestX, then examples/gone.py.\n"
    )
    assert check_docs.missing_paths(doc) == [
        (2, "benchmarks/bench_sim_perf.py"),
        (3, "tests/test_gone.py"),
        (3, "examples/gone.py"),
    ]


#: names deleted with the lane-per-candidate checker tier, with spill
#: lanes, with sequential lanes, with the compiled backend's dirty-cone
#: and fixpoint settles, with the per-candidate trace check, with the
#: histogram metric kind, with the ratio benches and the paper benches'
#: pytest-benchmark timing tails, and with helpers nothing called; a
#: mention outside this list is a doc or comment that outlived the code
_DELETED_NAMES = re.compile(
    "LockstepSimulator|LockstepTestbench|_LaneTestbench|_run_lockstep_group"
    "|_candidate_shape_digest|_MIN_LOCKSTEP_LANES|LOCKSTEP_CHECK_ENABLED"
    "|REPRO_SIM_LOCKSTEP_CHECK|get_shape|put_shape|UNBATCHABLE_SHAPE"
    "|retire_cycle|replay_stragglers"
    "|_SpillCompiler|lane_representation|REPRESENTATIONS|lane_dtype"
    "|shift_cap|wide_expected|REPRO_SIM_BATCH_CHECK"
    "|BatchTestbench|BatchDivergence|is_stateless_comb|comb_latched"
    "|_sweep_lanes|_commit_nba_lanes|_emit_field_write|_emit_direct_field"
    '|_make_simulator|backend="batch"'
    "|_settle_levelized|_settle_fixpoint|_mark_external|pos_of"
    "|_check_against_trace|_Histogram"
    "|CoverageTracker|POINTS_PER_BIT|coverage_stimulus|golden_mode_token"
    "|env_int|REPRO_SIM_CEGIS|REPRO_SIM_COVERAGE|BATCH_CHECK_ENABLED"
    "|bench_sim_perf|bench_batch_perf|bench_substrate_perf|pytest-benchmark"
    "|simulate_source|iter_spans|dedent_code|leading_fraction"
    "|licensed_verilog_files|is_sequential|CurationError|benchmark\\.pedantic"
    "|_check_all_vectors_batch|_bundle_lanes|RetireEngine|retire_all_vectors"
    "|expected_matrix|lane_vector"
    "|store_many|get_verdict|_read_record|_HEAD_BYTES"
)


@pytest.mark.parametrize(
    "root", ["src", "docs", "examples", ".github", "benchmarks"]
)
def test_no_mention_of_deleted_names(root):
    hits = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: {line.strip()}"
        for path in sorted((REPO_ROOT / root).rglob("*"))
        if path.suffix in (".py", ".md", ".yml")
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if _DELETED_NAMES.search(line)
    ]
    assert not hits, "\n".join(hits)
