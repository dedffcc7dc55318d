"""Tests and properties for shingling, MinHash, LSH, and dedup."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup import (
    LSHIndex,
    MinHasher,
    choose_bands,
    deduplicate,
    estimate_jaccard,
    jaccard_similarity,
    shingle_hashes,
    shingles,
)
from repro.dedup.jaccard import text_jaccard
from repro.dedup.shingle import _tokens as shingle_tokens
from repro.utils.textnorm import normalize_whitespace, strip_comments


class TestShingles:
    def test_basic_window(self):
        result = shingles("a b c d", width=2)
        assert result == {"a b", "b c", "c d"}

    def test_short_text_single_shingle(self):
        assert shingles("a b", width=5) == {"a b"}

    def test_empty_text(self):
        assert shingles("") == set()

    def test_comments_ignored(self):
        assert shingles("// x\na b c", 2) == shingles("a b c", 2)

    def test_whitespace_normalized(self):
        assert shingles("a\n\tb   c", 2) == shingles("a b c", 2)

    def test_hashes_sorted_unique_dtype(self):
        hashes = shingle_hashes("module m; endmodule")
        assert hashes.dtype == np.uint64
        assert list(hashes) == sorted(hashes)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            shingles("a", width=0)

    # every separator either definition of whitespace could disagree on,
    # around words and comment markers
    _ODD_TEXT = st.text(
        alphabet=st.one_of(
            st.sampled_from(
                " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2009"
                "\u200b\u2028\u2029\u202f\u205f\u3000\ufeffab/*\"\\"
            ),
            st.characters(),
        ),
        max_size=60,
    )

    @given(_ODD_TEXT)
    def test_tokens_need_no_whitespace_pass(self, text):
        # the definition shingles were pinned under: collapse, trim, split
        pinned = normalize_whitespace(strip_comments(text)).split()
        assert shingle_tokens(text) == pinned


class TestJaccard:
    def test_identical(self):
        assert jaccard_similarity({"a"}, {"a"}) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0

    def test_both_empty_is_one(self):
        assert jaccard_similarity(set(), set()) == 1.0

    def test_partial(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)


words = st.sampled_from(
    ["module", "wire", "assign", "input", "output", "reg", "clk", "always",
     "begin", "end", "posedge", "a", "b", "y", "q", "sum"]
)
texts = st.lists(words, min_size=10, max_size=120).map(" ".join)


class TestMinHashProperties:
    @settings(max_examples=20, deadline=None)
    @given(texts, texts)
    def test_estimate_tracks_exact_jaccard(self, t1, t2):
        hasher = MinHasher(num_permutations=256)
        estimate = estimate_jaccard(hasher.signature(t1), hasher.signature(t2))
        exact = text_jaccard(t1, t2)
        assert abs(estimate - exact) < 0.25  # 256 perms: s.d. <= ~0.031

    @settings(max_examples=20, deadline=None)
    @given(texts)
    def test_identical_text_estimates_one(self, t):
        hasher = MinHasher()
        assert estimate_jaccard(hasher.signature(t), hasher.signature(t)) == 1.0

    def test_deterministic_across_instances(self):
        a = MinHasher(seed=42).signature("module m; endmodule")
        b = MinHasher(seed=42).signature("module m; endmodule")
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = MinHasher(seed=1).signature("module m; endmodule")
        b = MinHasher(seed=2).signature("module m; endmodule")
        assert not np.array_equal(a.values, b.values)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            estimate_jaccard(
                MinHasher(num_permutations=16).signature("a"),
                MinHasher(num_permutations=32).signature("a"),
            )


class TestLSH:
    def test_choose_bands_divides_evenly(self):
        for perms in (64, 128, 256):
            bands, rows = choose_bands(perms, 0.85)
            assert bands * rows == perms

    def test_choose_bands_threshold_sane(self):
        bands, rows = choose_bands(128, 0.85)
        inflection = (1.0 / bands) ** (1.0 / rows)
        assert 0.6 < inflection < 0.97

    def test_near_duplicates_are_candidates(self):
        hasher = MinHasher()
        bands, rows = choose_bands(hasher.num_permutations, 0.85)
        index = LSHIndex(bands, rows)
        text = "module m(input a, output y); assign y = ~a; endmodule " * 4
        near = "// fork\n" + text
        index.insert("orig", hasher.signature(text))
        assert "orig" in index.candidates(hasher.signature(near))

    def test_distinct_texts_not_candidates(self):
        hasher = MinHasher()
        bands, rows = choose_bands(hasher.num_permutations, 0.85)
        index = LSHIndex(bands, rows)
        index.insert("a", hasher.signature("module adder; endmodule " * 6))
        probe = hasher.signature(
            "entirely different words apple banana cherry date " * 6
        )
        assert index.candidates(probe) == set()

    def test_duplicate_key_rejected(self):
        hasher = MinHasher()
        bands, rows = choose_bands(hasher.num_permutations, 0.85)
        index = LSHIndex(bands, rows)
        sig = hasher.signature("x y z")
        index.insert("k", sig)
        with pytest.raises(KeyError):
            index.insert("k", sig)


class TestDeduplicate:
    def test_exact_duplicates_removed_keep_first(self):
        text = "module m(input a, output y); assign y = a; endmodule " * 3
        result = deduplicate([("first", text), ("second", text)])
        assert result.kept_keys == ["first"]
        assert result.removed == {"second": "first"}

    def test_distinct_files_kept(self, tiny_verilog_corpus):
        items = [(i, t) for i, t in enumerate(tiny_verilog_corpus[:30])]
        result = deduplicate(items)
        # generated modules are style-varied; only same-origin copies are
        # near-duplicates, and these 30 are all fresh draws
        assert result.removed_count <= 6

    def test_world_duplicates_detected(self, raw_files):
        result = deduplicate([(f.file_id, f.content) for f in raw_files])
        by_id = {f.file_id: f for f in raw_files}
        kept_origins = {}
        missed = 0
        for key in result.kept_keys:
            origin = by_id[key].origin_id
            if origin >= 0:
                if origin in kept_origins:
                    missed += 1
                kept_origins[origin] = key
        # near-perfect recall on ground-truth duplicate clusters; a small
        # residue is expected where a cluster representative was itself
        # removed as a borderline near-duplicate of a different cluster
        # (Jaccard is not transitive at the 0.85 boundary)
        assert missed <= max(2, len(result.kept_keys) // 25)

    def test_threshold_monotonicity(self, raw_files):
        sample = [(f.file_id, f.content) for f in raw_files[:250]]
        low = deduplicate(sample, threshold=0.7)
        high = deduplicate(sample, threshold=0.95)
        assert low.kept_count <= high.kept_count

    def test_removal_fraction(self):
        text_a = "module a(input x, output y); assign y = x; endmodule " * 3
        result = deduplicate([("a", text_a), ("b", text_a), ("c", text_a + "wire z;")])
        assert 0 < result.removal_fraction < 1

    def test_attribution_prefers_first_inserted_match(self):
        base = "module m(input a, output y); assign y = a ^ 1; endmodule " * 4
        result = deduplicate(
            [("first", base), ("probe", base), ("later", base)]
        )
        assert result.kept_keys == ["first"]
        assert result.removed == {"probe": "first", "later": "first"}

    def test_candidates_in_order_ignores_key_hash_order(self):
        """Multiple colliding candidates come back in insertion order, not
        in the hash-set order ``candidates()`` exposes."""
        hasher = MinHasher()
        bands, rows = choose_bands(hasher.num_permutations, 0.85)
        index = LSHIndex(bands, rows)
        signature = hasher.signature("module m; endmodule " * 4)
        keys = [f"repo-{i}:file.v" for i in (9, 2, 7, 0, 5)]
        for key in keys:
            index.insert(key, signature)
        assert index.candidates_in_order(signature) == keys
        assert index.candidates(signature) == set(keys)


class TestDedupDeterminism:
    """Dedup results must not depend on ``PYTHONHASHSEED``.

    String keys hash differently per interpreter run, so any set-ordered
    candidate scan leaks hash ordering into the ``removed`` attribution.
    The scan is insertion-ordered; results across hash seeds must agree.
    """

    _PROGRAM = """
import json, sys
from repro.dedup import deduplicate
from repro.utils.rng import DeterministicRNG
from repro.vgen import generate as generate_module

rng = DeterministicRNG(0xD5EED)
modules = [generate_module(rng.fork(i)).source for i in range(40)]
items = []
for i, text in enumerate(modules):
    items.append((f"repo-{i}:mod.v", text))
    if i % 3 == 0:
        items.append((f"repo-{i}:copy.v", "// fork\\n" + text))
result = deduplicate(items)
print(json.dumps({
    "kept": result.kept_keys,
    "removed": sorted(result.removed.items()),
}))
"""

    def _run_with_hash_seed(self, seed):
        import json
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        output = subprocess.run(
            [sys.executable, "-c", self._PROGRAM],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        return json.loads(output)

    def test_stable_across_hash_seeds(self):
        results = [self._run_with_hash_seed(seed) for seed in (0, 1, 31337)]
        assert results[0] == results[1] == results[2]
        assert results[0]["removed"]  # the corpus does contain duplicates
