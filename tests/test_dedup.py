"""Tests and properties for shingling, MinHash, LSH, and dedup."""

import pickle

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.curation import IncrementalCurator
from repro.dedup import (
    LSHIndex,
    MinHasher,
    StreamingDeduplicator,
    choose_bands,
    deduplicate,
    estimate_jaccard,
    jaccard_similarity,
    shingle_hashes,
    shingles,
)
from repro.dedup.jaccard import text_jaccard
from repro.dedup.shingle import _stable_hash64, shingle_tokens
from repro.engine import CheckpointStore
from repro.utils.rng import DeterministicRNG
from repro.utils.textnorm import normalize_whitespace, strip_comments


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
        assert len(MinHasher(num_permutations=16).signature("a")) == 16
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


@pytest.fixture(scope="module")
def world_arrivals(raw_files):
    """Two seeded arrival orders of the test world, each with the answer
    of the per-file, table-free path."""
    items = [(f.file_id, f.content) for f in raw_files]
    rng = DeterministicRNG(0xDED0)
    arrivals = [rng.fork(label).shuffled(items) for label in ("a", "b")]
    return [(arrival, deduplicate(arrival)) for arrival in arrivals]


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

    def test_world_duplicates_detected(self, raw_files, world_arrivals):
        _, result = world_arrivals[0]
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


def _defined_hashes(text, width=5):
    """A document's shingle hashes, from the definition."""
    return np.array(
        sorted(_stable_hash64(s) for s in shingles(text, width)),
        dtype=np.uint64,
    )


def _same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


def _offer_in_batches(items, batch_size, dedup=None, after_batch=None):
    """``items`` through ``offer_batch`` in ``batch_size`` pieces (None = one)."""
    dedup = dedup or StreamingDeduplicator()
    size = batch_size or max(1, len(items))
    for n, start in enumerate(range(0, len(items), size)):
        dedup.offer_batch(items[start:start + size])
        if after_batch is not None:
            after_batch(n, dedup)
    return dedup.result


def _decisions(result):
    return result.kept_keys, result.removed


def _gallery():
    """Hand-built texts around every rule the exact-text table leans on."""
    body = " ".join(
        f"assign n{i} = a{i} & b{i} | c{i};" for i in range(40)
    )
    kept = f"module k(input a, output y); {body} endmodule"
    # one edited statement of forty: a near-duplicate, not an exact one
    near = kept.replace("assign n7 = a7 & b7", "assign n7 = a7 ^ b7")
    other = "module o; " + " ".join(f"wire w{i};" for i in range(30)) + " endmodule"
    literal = 'module s; initial $display("http://x // not a comment"); endmodule'
    return [
        ("kept", kept),
        ("kept.line-comment", "// SPDX: MIT\n" + kept),
        ("kept.block-comment", "/* (c) someone */ " + kept.replace(";", "; /* x */")),
        ("kept.whitespace", kept.replace(" ", "\n\t  ")),
        ("near", near),
        ("near.copy", "// forked from near\n" + near),
        ("near.copy2", near + "\n// trailing"),
        ("other", other),
        ("other.again", other),
        ("empty", ""),
        ("blank", " \n\t "),
        ("all-line-comment", "// nothing\n// here"),
        ("all-block-comment", "/* nothing\nhere */"),
        ("three-tokens", "a b c"),
        ("three-tokens.copy", "a /* */ b // c\n c"),
        ("five-tokens", "a b c d e"),
        ("five-tokens.copy", "a\tb\nc d e // f"),
        ("six-tokens", "a b c d e f"),
        ("literal", literal),
        ("literal.copy", literal + " // a real comment"),
        ("literal.differs", literal.replace("not a", "still not a")),
        ("unterminated", "module u; wire q0; wire q1; /* never closed\nendmodule"),
        ("unterminated.copy", "/**/module u; wire q0;\nwire q1; /* nor this"),
    ]


class TestDedupOracle:
    """One differential oracle for the batched path.

    ``offer_batch`` (exact-text table + one-pass shingle hashing) must
    decide what ``deduplicate()`` — every file signed, no table — decides:
    the same ``kept_keys`` and the same ``removed -> kept`` map; and
    ``shingle_hashes`` must equal its definition, ``shingles`` +
    ``_stable_hash64``, in values, order and dtype.
    """

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("batch_size", [1, 7, 256, None])
    def test_world_decisions(self, world_arrivals, order, batch_size):
        arrival, reference = world_arrivals[order]
        result = _offer_in_batches(arrival, batch_size)
        assert _decisions(result) == _decisions(reference)
        # the table did decide most of them
        assert result.candidate_checks < reference.candidate_checks

    @pytest.mark.parametrize("batch_size", [1, 2, 3, None])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gallery_decisions(self, batch_size, reverse):
        items = _gallery()
        if reverse:
            items.reverse()
        reference = deduplicate(items)
        result = _offer_in_batches(items, batch_size)
        assert _decisions(result) == _decisions(reference)

    def test_gallery_holds_the_cases_it_names(self):
        removed = deduplicate(_gallery()).removed
        # a near-duplicate removed against a kept file, then exact copies
        # of the *removed* file: they resolve to the kept one
        assert removed["near"] == "kept"
        assert removed["near.copy"] == removed["near.copy2"] == "kept"
        for key in ("kept.line-comment", "kept.block-comment",
                    "kept.whitespace"):
            assert removed[key] == "kept"
        assert removed["unterminated.copy"] == "unterminated"
        assert removed["other.again"] == "other"
        assert removed["blank"] == removed["all-line-comment"] == "empty"
        assert removed["all-block-comment"] == "empty"
        assert removed["three-tokens.copy"] == "three-tokens"
        assert removed["five-tokens.copy"] == "five-tokens"
        assert removed["literal.copy"] == "literal"
        for key in ("six-tokens", "literal.differs", "unterminated"):
            assert key not in removed

    _doc = st.lists(
        st.sampled_from(["a", "b", "c", "d", "e", ";"]),
        min_size=60, max_size=110,
    )
    _edit = st.tuples(st.integers(0, 109), st.sampled_from(["a", "b", "x"]))
    _variant = st.tuples(
        st.integers(0, 2),  # which base document
        st.lists(_edit, max_size=3),
        st.none() | st.integers(0, 9),  # ... or an exact copy of that item
        st.sampled_from(["", "// c\n", "/* c */ ", "\t"]),
    )

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(_doc, min_size=3, max_size=3),
        st.lists(_variant, min_size=2, max_size=10),
        st.sampled_from([1, 2, 3, None]),
    )
    def test_near_threshold_documents(self, bases, variants, batch_size):
        # a few edits to a ~100-token document land the pair's Jaccard on
        # either side of 0.85; 32 permutations make the estimate noisy
        bodies = []
        for base, edits, copy_of, _ in variants:
            if copy_of is not None and copy_of < len(bodies):
                bodies.append(bodies[copy_of])
                continue
            tokens = list(bases[base])
            for position, token in edits:
                tokens[position % len(tokens)] = token
            bodies.append(" ".join(tokens))
        items = [
            (n, variant[-1] + body)
            for n, (variant, body) in enumerate(zip(variants, bodies))
        ]
        reference = deduplicate(items, num_permutations=32)
        result = _offer_in_batches(
            items, batch_size, StreamingDeduplicator(num_permutations=32)
        )
        assert _decisions(result) == _decisions(reference)

    def test_table_is_only_an_accelerator(self, world_arrivals):
        arrival, reference = world_arrivals[0]

        def clear_every_other(n, dedup):
            if n % 2:
                dedup.exact.clear()

        result = _offer_in_batches(arrival, 97, after_batch=clear_every_other)
        assert _decisions(result) == _decisions(reference)

    def test_offer_and_offer_batch_interleave(self, world_arrivals):
        arrival, reference = world_arrivals[1]
        dedup = StreamingDeduplicator()
        for n, start in enumerate(range(0, len(arrival), 61)):
            piece = arrival[start:start + 61]
            if n % 4 == 1:
                for key, text in piece:
                    dedup.offer(key, text)
            else:
                dedup.offer_batch(piece)
        assert _decisions(dedup.result) == _decisions(reference)

    # -- through the engine: IncrementalCurator checkpoints ---------------

    @staticmethod
    def _dedup_of(curator):
        return next(s for s in curator.graph.stages if s.name == "dedup").dedup

    @classmethod
    def _outcome(cls, curator):
        return (
            [f.file_id for f in curator.kept_files],
            [(s.name, s.in_count, s.out_count) for s in curator.funnel.stages],
            cls._dedup_of(curator).result.removed,
        )

    @staticmethod
    def _saved_midstream(batches, store):
        """A curator that ingested the first half and saved to ``store``."""
        first = IncrementalCurator()
        for batch in batches[:2]:
            first.ingest(batch)
        first.save(store)
        return first

    @pytest.fixture(scope="class")
    def curated(self, raw_files):
        """An uninterrupted four-batch ingest, and its batches."""
        files = raw_files[::2]
        quarter = -(-len(files) // 4)
        batches = [files[i:i + quarter] for i in range(0, len(files), quarter)]
        curator = IncrementalCurator()
        for batch in batches:
            curator.ingest(batch)
        return batches, curator

    def test_save_load_midstream_restores_the_table(self, curated, tmp_path):
        batches, uninterrupted = curated
        store = CheckpointStore(tmp_path)
        first = self._saved_midstream(batches, store)
        resumed = IncrementalCurator()
        assert resumed.load(store)
        table = self._dedup_of(resumed).exact
        assert table and table == self._dedup_of(first).exact
        for batch in batches[2:]:
            resumed.ingest(batch)
        assert self._outcome(resumed) == self._outcome(uninterrupted)

    def test_snapshot_from_before_the_table_restores(self, curated, tmp_path):
        batches, uninterrupted = curated
        store = CheckpointStore(tmp_path)
        self._saved_midstream(batches, store)
        # what the parent commit pickled: a deduplicator with no table
        state = store.load("curator")
        del state["graph"]["stages"]["dedup"].__dict__["exact"]
        assert b"exact" not in pickle.dumps(state["graph"]["stages"]["dedup"])
        store.save("curator", state)
        resumed = IncrementalCurator()
        assert resumed.load(store)
        assert self._dedup_of(resumed).exact == {}
        for batch in batches[2:]:
            resumed.ingest(batch)
        assert self._outcome(resumed) == self._outcome(uninterrupted)

    # -- shingle hashes against their definition --------------------------

    @given(_ODD_TEXT, st.sampled_from([1, 2, 5, 100]))
    @example("\ud800", 1)  # a lone surrogate: strict UTF-8 refuses it
    def test_hashes_equal_definition_on_odd_text(self, text, width):
        assert _same_array(
            shingle_hashes(text, width), _defined_hashes(text, width)
        )

    def test_hashes_equal_definition_on_world(self, raw_files):
        for f in raw_files:
            assert _same_array(
                shingle_hashes(f.content), _defined_hashes(f.content)
            ), f.file_id

    @pytest.mark.parametrize("text", ["", "// only", "a", "a b c d e", "a b c d e f"])
    @pytest.mark.parametrize("width", [1, 5, 6, 7])
    def test_hashes_equal_definition_at_width_edges(self, text, width):
        assert _same_array(
            shingle_hashes(text, width), _defined_hashes(text, width)
        )

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            shingle_hashes("a b c", width=0)


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
