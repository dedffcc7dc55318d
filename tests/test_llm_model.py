"""Tests for the LanguageModel facade and sampler behaviour."""

import pickle

import pytest

from repro import obs
from repro.errors import TrainingError
from repro.llm import GenerationConfig, LanguageModel
from repro.utils.rng import DeterministicRNG


class TestPretrain:
    def test_report_populated(self, tiny_model):
        report = tiny_model.report
        assert report.files == 60
        assert report.tokens > 0
        assert report.vocab_size >= 256
        assert report.ngram_pairs > 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError):
            LanguageModel.pretrain("x", [])

    def test_max_train_tokens_cap(self, tiny_verilog_corpus):
        capped = LanguageModel.pretrain(
            "cap", tiny_verilog_corpus, num_merges=50, max_train_tokens=500
        )
        assert capped.report.tokens <= 500


class TestContinualPretrain:
    def test_base_unchanged_and_new_model_knows_more(self, tiny_verilog_corpus):
        base = LanguageModel.pretrain(
            "base", tiny_verilog_corpus[:20], num_merges=100
        )
        base_pairs = base.counts.pair_count
        tuned = base.continual_pretrain("tuned", tiny_verilog_corpus[20:60])
        assert base.counts.pair_count == base_pairs
        assert tuned.counts.pair_count > base_pairs
        assert tuned.tokenizer is base.tokenizer

    def test_empty_finetune_corpus_rejected(self, tiny_model):
        with pytest.raises(TrainingError):
            tiny_model.continual_pretrain("ft", [])


class TestGeneration:
    def test_stops_at_endmodule(self, tiny_model):
        out = tiny_model.generate(
            "module counter(\n", GenerationConfig(max_new_tokens=400), seed=3
        )
        assert out.count("endmodule") <= 1
        if "endmodule" in out:
            assert out.endswith("endmodule")

    def test_exclude_stop_string(self, tiny_model):
        config = GenerationConfig(max_new_tokens=400, include_stop=False)
        out = tiny_model.generate("module counter(\n", config, seed=3)
        assert "endmodule" not in out

    def test_deterministic_per_seed(self, tiny_model):
        config = GenerationConfig(temperature=0.8, max_new_tokens=60)
        a = tiny_model.generate("module m(\n", config, seed=11)
        b = tiny_model.generate("module m(\n", config, seed=11)
        c = tiny_model.generate("module m(\n", config, seed=12)
        assert a == b
        assert a != c or len(a) < 4  # different seeds should usually differ

    def test_temperature_zero_is_greedy(self, tiny_model):
        config = GenerationConfig(temperature=0.0, max_new_tokens=40)
        outs = {tiny_model.generate("module m(\n", config, seed=s) for s in range(4)}
        assert len(outs) == 1

    def test_high_temperature_diversifies(self, tiny_model):
        config = GenerationConfig(temperature=1.2, max_new_tokens=60)
        outs = {
            tiny_model.generate("module ", config, seed=s) for s in range(8)
        }
        assert len(outs) > 1

    def test_batch_matches_singles(self, tiny_model):
        config = GenerationConfig(temperature=0.8, max_new_tokens=30)
        batch = tiny_model.generate_batch("module ", 3, config, seed=5)
        assert batch == [
            tiny_model.generate(
                "module ", config, seed=DeterministicRNG(5).fork(i).seed
            )
            for i in range(3)
        ]

    def test_token_budget_respected(self, tiny_model):
        config = GenerationConfig(
            max_new_tokens=5, stop_strings=("THISNEVERAPPEARS",)
        )
        out = tiny_model.generate("module m(\n", config, seed=0)
        # 5 BPE tokens decode to a bounded number of characters
        assert len(tiny_model.tokenizer.encode(out)) <= 8

    def test_character_spanning_tokens_decodes_whole(self):
        # "é" is two bytes, and with no merges two tokens: decoding each
        # token alone gave a pair of U+FFFD.
        source = "module café_top(input a, output b);\n  assign b = a;\nendmodule\n"
        model = LanguageModel.pretrain("x", [source] * 3, num_merges=0)
        out = model.generate(
            "module caf", GenerationConfig(temperature=0.0, max_new_tokens=200)
        )
        assert out == source[len("module caf"):].rstrip("\n")

    @pytest.mark.parametrize(
        "include_stop, expected", [(True, "a"), (False, "")]
    )
    def test_earliest_stop_wins_whatever_the_config_order(
        self, include_stop, expected
    ):
        model = LanguageModel.pretrain("x", ["x ab " * 8], num_merges=8)
        assert len(model.tokenizer.encode("ab")) == 1
        config = GenerationConfig(
            temperature=0.0,
            max_new_tokens=20,
            stop_strings=("b", "a"),
            include_stop=include_stop,
        )
        # "a" and "b" arrive in one piece; "a" ends first.
        assert model.generate("x ", config) == expected

    def test_decode_counters_say_how_a_completion_was_decided(
        self, tiny_verilog_corpus
    ):
        distinctive = (
            "module zx_unique_block(input wire [6:0] zx_in,\n"
            "    output wire [6:0] zx_out);\n"
            "    assign zx_out = zx_in ^ 7'h55;\n"
            "endmodule\n"
        )
        model = LanguageModel.pretrain(
            "c", tiny_verilog_corpus[:20] + [distinctive], num_merges=50
        )

        def counted(prompt, config):
            before = obs.counters("sampler.")
            model.generate(prompt, config, seed=1)
            return {
                name[len("sampler."):]: value - before.get(name, 0)
                for name, value in obs.counters("sampler.").items()
            }

        # Regurgitation: every token decided by the top order, no draw.
        memorised = counted(
            distinctive[: distinctive.index("output")],
            GenerationConfig(temperature=0.0, max_new_tokens=200),
        )
        assert memorised["completions"] == 1
        assert memorised["state_rehash"] == 1
        assert memorised["tokens_top_order"] == memorised["tokens"] > 0
        assert memorised["tokens_sampled"] == 0
        # A prompt the corpus never had: lower orders decide, with draws.
        novel = counted(
            "qq zz ~~ qq zz ~~ qq zz ~~ qq zz ~~ ",
            GenerationConfig(temperature=0.8, max_new_tokens=20),
        )
        assert novel["tokens_top_order"] < novel["tokens"] == 20
        assert 0 < novel["tokens_sampled"] <= 20

    def test_pickle_carries_no_decode_state(self, tiny_verilog_corpus):
        model = LanguageModel.pretrain("p", tiny_verilog_corpus[:20], num_merges=50)
        prompt = "module counter(\n"
        config = GenerationConfig(temperature=0.8, max_new_tokens=80)
        # the tokenizer's word cache is pickled: fill it before measuring
        model.encode_prompt(prompt)
        fresh = pickle.dumps(model)
        outs = [model.generate(prompt, config, seed=s) for s in range(4)]
        lm = model._sampler.lm
        assert lm.view(lm.counts.orders[0]).runs  # the run memo was filled
        assert pickle.dumps(model) == fresh
        clone = pickle.loads(fresh)
        assert [clone.generate(prompt, config, seed=s) for s in range(4)] == outs


class TestMemorizationBehaviour:
    def test_regurgitates_distinctive_training_file(self, tiny_verilog_corpus):
        distinctive = (
            "module zx_unique_block(input wire [6:0] zx_in,\n"
            "    output wire [6:0] zx_out);\n"
            "    assign zx_out = zx_in ^ 7'h55;\n"
            "endmodule\n"
        )
        model = LanguageModel.pretrain(
            "memo", tiny_verilog_corpus[:40] + [distinctive], num_merges=200
        )
        prompt = distinctive[: distinctive.index("output")]
        out = model.generate(
            prompt, GenerationConfig(temperature=0.0, max_new_tokens=200), seed=0
        )
        assert "zx_out = zx_in ^ 7'h55" in out

    def test_clean_model_does_not_know_the_file(self, tiny_verilog_corpus):
        model = LanguageModel.pretrain(
            "clean", tiny_verilog_corpus[:40], num_merges=200
        )
        prompt = "module zx_unique_block(input wire [6:0] zx_in,\n    "
        out = model.generate(
            prompt, GenerationConfig(temperature=0.0, max_new_tokens=200), seed=0
        )
        assert "zx_in ^ 7'h55" not in out
