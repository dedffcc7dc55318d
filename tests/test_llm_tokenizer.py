"""Tests and properties for the BPE tokenizer."""

import pickle

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.tokenizer import BPETokenizer, pretokenize, train_tokenizer


class TestPretokenize:
    def test_identifiers_and_punct(self):
        assert pretokenize("assign y = a+b;") == [
            "assign", " ", "y", " ", "=", " ", "a", "+", "b", ";"
        ]

    def test_whitespace_runs_kept_whole(self):
        assert pretokenize("a\n    b") == ["a", "\n", "    ", "b"]

    def test_numbers(self):
        assert pretokenize("8'hFF") == ["8", "'", "hFF"]

    def test_roundtrip_concat(self):
        text = "module m(input [7:0] a);\n  assign y = a + 8'd1;\nendmodule\n"
        assert "".join(pretokenize(text)) == text


class TestByteFallback:
    def test_zero_merge_tokenizer_roundtrips(self):
        tok = BPETokenizer(merges=[])
        text = "module weird_name_никогда(input a);"
        assert tok.decode(tok.encode(text)) == text

    def test_vocab_size(self):
        tok = train_tokenizer(["module m; endmodule"] * 4, num_merges=10)
        assert 256 <= tok.vocab_size <= 266


class TestTraining:
    def test_merges_learned_on_repetitive_text(self):
        corpus = ["module counter(input wire clk);" * 5] * 10
        tok = train_tokenizer(corpus, num_merges=50)
        assert len(tok.merges) > 5
        # frequent words should compress well below byte length
        ids = tok.encode("counter")
        assert len(ids) < len("counter")

    def test_deterministic(self):
        corpus = ["assign y = a + b;"] * 8
        a = train_tokenizer(corpus, num_merges=30)
        b = train_tokenizer(corpus, num_merges=30)
        assert a.merges == b.merges

    def test_negative_merges_rejected(self):
        from repro.errors import TrainingError

        with pytest.raises(TrainingError):
            train_tokenizer(["x"], num_merges=-1)

    def test_unseen_words_still_encode(self, tiny_verilog_corpus):
        tok = train_tokenizer(tiny_verilog_corpus[:10], num_merges=100)
        text = "module zebra_quokka_xyz(input qq);"
        assert tok.decode(tok.encode(text)) == text


verilogish = st.text(
    alphabet=st.sampled_from(
        list("abcdefghijklmnopqrstuvwxyz_0123456789 \n\t[](){};:=+-&|^~'")
    ),
    min_size=0,
    max_size=200,
)


class TestRoundtripProperty:
    @settings(max_examples=60, deadline=None)
    @given(verilogish)
    def test_encode_decode_identity(self, text):
        tok = train_tokenizer(
            ["module m(input a, output y); assign y = ~a; endmodule"] * 3,
            num_merges=40,
        )
        assert tok.decode(tok.encode(text)) == text

    @settings(max_examples=30, deadline=None)
    @given(st.text(min_size=0, max_size=80))
    def test_arbitrary_unicode_roundtrips(self, text):
        tok = BPETokenizer(merges=[])
        assert tok.decode(tok.encode(text)) == text

    @settings(max_examples=30, deadline=None)
    @given(verilogish)
    def test_encoding_is_deterministic(self, text):
        tok = train_tokenizer(["assign y = a;"] * 5, num_merges=20)
        assert tok.encode(text) == tok.encode(text)


_MERGES = train_tokenizer(
    [
        "module m_$x(input [3:0] a,\r\n\toutput y); assign y = ^a; endmodule",
        "// reg \u00e9t\u00e9 \u2192 $display(\"caf\u00e9\"); always @(posedge clk) q <= d;",
    ]
    * 4,
    num_merges=60,
).merges

#: text with non-ASCII letters, \r, tabs and $ identifiers, so words miss
#: and hit the cache in every mix
_TOKENIZER_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("amodule_$xy \t\r\n[](){};=+^'0123")),
        st.sampled_from(["\u00e9", "\u2192", "\u00df", "\U0001f600"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=120,
)


def _reference_encode(tokenizer, text):
    """What ``encode`` is: ``_encode_word`` on each word, in order."""
    return [t for word in pretokenize(text) for t in tokenizer._encode_word(word)]


class TestEncodeIdentity:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_TOKENIZER_TEXT, min_size=1, max_size=4))
    def test_encode_equals_the_word_loop(self, texts):
        fast, reference = BPETokenizer(_MERGES), BPETokenizer(_MERGES)
        # a warm cache on both, so each text mixes hits and misses
        warm = "module m_$x(input a); assign y = a; endmodule\r\n"
        assert fast.encode(warm) == _reference_encode(reference, warm)
        for text in texts:
            assert fast.encode(text) == _reference_encode(reference, text)
        # the cache is pickled with the model: same keys, same order
        assert list(fast._word_cache.items()) == list(reference._word_cache.items())
        assert pickle.dumps(fast) == pickle.dumps(reference)
