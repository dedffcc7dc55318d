"""Language-model training facade.

A :class:`LanguageModel` bundles a tokenizer, count tables, and decoding.
``LanguageModel.pretrain`` builds a base model from a corpus;
``continual_pretrain`` returns a *new* model whose count tables merge the
base's with counts from the fine-tuning corpus — the n-gram analogue of
the paper's continual pre-training run (the base model is untouched,
matching how the paper evaluates base and fine-tuned models side by
side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import TrainingError
from repro.llm.ngram import DEFAULT_ORDERS, NGramCounts, NGramLM, check_weight
from repro.llm.sampler import GenerationConfig, Sampler
from repro.llm.tokenizer import BPETokenizer, train_tokenizer


@dataclass
class TrainingReport:
    """Summary statistics from a training run."""

    files: int
    tokens: int
    vocab_size: int
    ngram_pairs: int


class LanguageModel:
    """A trained model: tokenizer + n-gram counts + sampler."""

    def __init__(
        self,
        name: str,
        tokenizer: BPETokenizer,
        counts: NGramCounts,
        min_evidence: float = 1.0,
    ) -> None:
        self.name = name
        self.tokenizer = tokenizer
        self.counts = counts
        self._sampler = Sampler(tokenizer, NGramLM(counts, min_evidence))
        self.report: Optional[TrainingReport] = None

    # -- training -----------------------------------------------------------

    @classmethod
    def pretrain(
        cls,
        name: str,
        corpus: Sequence[str],
        num_merges: int = 512,
        orders=DEFAULT_ORDERS,
        max_train_tokens: Optional[int] = None,
        seed: int = 0,
    ) -> "LanguageModel":
        """Train a base model from scratch on ``corpus`` texts."""
        if not corpus:
            raise TrainingError(f"model {name!r}: empty training corpus")
        tokenizer = train_tokenizer(corpus, num_merges=num_merges)
        sequences = _encode_corpus(tokenizer, corpus, max_train_tokens)
        counts = NGramCounts.train(sequences, orders=orders)
        model = cls(name, tokenizer, counts)
        model.report = TrainingReport(
            files=len(corpus),
            tokens=int(counts.tokens_trained),
            vocab_size=tokenizer.vocab_size,
            ngram_pairs=counts.pair_count,
        )
        return model

    def continual_pretrain(
        self,
        name: str,
        corpus: Sequence[str],
        weight: float = 1.0,
        max_train_tokens: Optional[int] = None,
    ) -> "LanguageModel":
        """Continual pre-training: new model = base counts + corpus counts.

        The tokenizer is inherited from the base model, exactly as the
        paper keeps Llama's tokenizer when fine-tuning.
        """
        if not corpus:
            raise TrainingError(f"model {name!r}: empty fine-tuning corpus")
        check_weight(weight)
        sequences = _encode_corpus(self.tokenizer, corpus, max_train_tokens)
        new_counts = NGramCounts.train(sequences, orders=self.counts.orders)
        merged = self.counts.merged_with(new_counts, weight)
        model = LanguageModel(name, self.tokenizer, merged)
        model.report = TrainingReport(
            files=len(corpus),
            tokens=int(new_counts.tokens_trained),
            vocab_size=self.tokenizer.vocab_size,
            ngram_pairs=merged.pair_count,
        )
        return model

    # -- inference ---------------------------------------------------------

    def generate(
        self,
        prompt: str,
        config: Optional[GenerationConfig] = None,
        seed: int = 0,
        prompt_tokens: Optional[Sequence[int]] = None,
    ) -> str:
        return self._sampler.generate(prompt, config, seed, prompt_tokens)

    def encode_prompt(self, prompt: str) -> List[int]:
        """Tokenize a prompt for reuse across many ``generate`` calls."""
        return self.tokenizer.encode(prompt)

    def generate_batch(
        self,
        prompt: str,
        n: int,
        config: Optional[GenerationConfig] = None,
        seed: int = 0,
    ) -> List[str]:
        return self._sampler.generate_batch(prompt, n, config, seed)


def _encode_corpus(
    tokenizer: BPETokenizer,
    corpus: Sequence[str],
    max_train_tokens: Optional[int],
) -> List[List[int]]:
    sequences: List[List[int]] = []
    budget = max_train_tokens if max_train_tokens is not None else float("inf")
    for text in corpus:
        if budget <= 0:
            break
        ids = tokenizer.encode(text)
        if len(ids) > budget:
            ids = ids[: int(budget)]
        budget -= len(ids)
        if ids:
            sequences.append(ids)
    return sequences
