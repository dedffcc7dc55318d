"""Temperature sampling with stop-string support.

Implements the paper's inference protocol (Sec. III-E2): bounded token
budget, temperature-controlled sampling, generation terminated at the
first ``endmodule``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import obs
from repro.llm.ngram import _BELOW_EVIDENCE, _BRANCHES, NGramLM, hash_context
from repro.llm.tokenizer import BPETokenizer
from repro.utils.rng import DeterministicRNG


@dataclass
class GenerationConfig:
    """Decoding parameters (defaults mirror the paper's setup)."""

    max_new_tokens: int = 2048
    temperature: float = 0.8
    stop_strings: Sequence[str] = field(default_factory=lambda: ("endmodule",))
    #: include the stop string in the returned text (the paper's harness
    #: stops *at* the first endmodule, keeping it, so the module closes)
    include_stop: bool = True


class Sampler:
    """Couples a tokenizer and an n-gram LM into a text generator."""

    def __init__(self, tokenizer: BPETokenizer, lm: NGramLM) -> None:
        self.tokenizer = tokenizer
        self.lm = lm

    def generate(
        self,
        prompt: str,
        config: Optional[GenerationConfig] = None,
        seed: int = 0,
        prompt_tokens: Optional[Sequence[int]] = None,
    ) -> str:
        """Generate a completion for ``prompt`` (completion text only).

        ``prompt_tokens`` optionally supplies the already-encoded prompt
        (it must equal ``encode(prompt)``); pass@k harnesses sample the
        same prompt many times and encode it once.

        Generation ends at the earliest end of any stop string (empty
        ones are ignored) or at the token budget.
        """
        config = config or GenerationConfig()
        rng = DeterministicRNG(seed)
        if prompt_tokens is None:
            sequence = self.tokenizer.encode(prompt)
        else:
            sequence = list(prompt_tokens)
        n_prompt = len(sequence)
        temperature = config.temperature
        greedy = temperature <= 1e-6

        # The loop carries the top order's decode state from token to
        # token instead of querying ``lm.distribution`` afresh: ``row`` is
        # the top-order row of the current context (-1: never observed)
        # and ``ctx_hash`` that context's hash while there is no row to
        # read it from (None: the sequence is still shorter than the top
        # order).  A row with one continuation steps to its successor
        # through the view's link; any other step is one rolling-hash
        # update and a probe; a context the top order cannot answer backs
        # off through the lower orders statelessly.
        lm = self.lm
        top = lm.view(lm.counts.orders[0])
        lower_orders = lm.counts.orders[1:]
        order = top.order
        single, rows, keys = top.single, top.rows, top.keys
        succ_row, succ_out = top.succ_row, top.succ_out
        row, ctx_hash = -1, None
        top_order = sampled = rehashed = 0

        token_bytes = self.tokenizer.token_bytes
        stops = [s.encode("utf-8") for s in config.stop_strings if s]
        # A stop string that ends in the newest piece starts at most this
        # many bytes before it.
        reach = max((len(s) for s in stops), default=1) - 1
        out = bytearray()
        cut = -1

        for _ in range(config.max_new_tokens):
            if ctx_hash is None and len(sequence) >= order:
                ctx_hash = hash_context(sequence, order)
                row = rows.get(ctx_hash, -1)
                rehashed += 1
            view, at = top, row
            if row < 0 or single[row] == _BELOW_EVIDENCE:
                view, at = lm.locate(sequence, lower_orders)
            else:
                top_order += 1
            token = view.single[at]
            if token == _BRANCHES:
                if greedy:
                    token = view.greedy(at)
                else:
                    token = view.sample(at, temperature, rng.random())
                    sampled += 1

            sequence.append(token)
            if ctx_hash is not None:
                t_out = sequence[~order]
                if row >= 0 and succ_out[row] == t_out:
                    row = succ_row[row]
                else:
                    if row >= 0:
                        ctx_hash = keys[row]
                    ctx_hash = top.roll(ctx_hash, token, t_out)
                    came_from, row = row, rows.get(ctx_hash, -1)
                    if row >= 0 and came_from >= 0 and single[came_from] >= 0:
                        succ_row[came_from], succ_out[came_from] = row, t_out

            piece = token_bytes(token)
            out += piece
            for stop in stops:
                # from the end; a start before the beginning means 0
                pos = out.find(stop, -reach - len(piece))
                if pos >= 0:
                    end = pos + len(stop) if config.include_stop else pos
                    cut = end if cut < 0 else min(cut, end)
            if cut >= 0:
                del out[cut:]
                break

        # One metrics write per completion, not per token.
        obs.count("sampler.tokens", len(sequence) - n_prompt)
        obs.count("sampler.completions")
        obs.count("sampler.tokens_top_order", top_order)
        obs.count("sampler.tokens_sampled", sampled)
        obs.count("sampler.state_rehash", rehashed)
        # Decoded once: a character's bytes can span several tokens.
        return out.decode("utf-8", errors="replace")

    def generate_batch(
        self,
        prompt: str,
        n: int,
        config: Optional[GenerationConfig] = None,
        seed: int = 0,
    ) -> List[str]:
        """n independent samples for the same prompt (pass@k protocol)."""
        return [
            self.generate(prompt, config, seed=DeterministicRNG(seed).fork(i).seed)
            for i in range(n)
        ]
