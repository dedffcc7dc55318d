"""Temperature sampling with stop-string support.

Implements the paper's inference protocol (Sec. III-E2): bounded token
budget, temperature-controlled sampling, generation terminated at the
first ``endmodule``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import obs
from repro.errors import ConfigError
from repro.llm.ngram import _BELOW_EVIDENCE, _BRANCHES, NGramLM, hash_context
from repro.llm.tokenizer import BPETokenizer
from repro.utils.rng import DeterministicRNG, fork_seed

#: ``_stop_cut``'s answer when a stop string completes before the last
#: token of the bytes it was given (a cut is >= 0, no stop is -1)
_STOP_INSIDE = -2


def check_temperature(temperature) -> None:
    """A temperature is a finite real number >= 0 (at most 1e-6 is greedy).

    NaN would reach ``_DecodeView.sample`` as a NaN cumulative list,
    whose bisection returns the same token for every seed; a negative
    one would be silently greedy.
    """
    if (
        isinstance(temperature, bool)
        or not isinstance(temperature, numbers.Real)
        or not (math.isfinite(temperature) and temperature >= 0)
    ):
        raise ConfigError(
            f"temperature must be a real number >= 0, got {temperature!r}"
        )


def check_max_new_tokens(max_new_tokens) -> None:
    """A token budget is an int >= 0."""
    if (
        isinstance(max_new_tokens, bool)
        or not isinstance(max_new_tokens, numbers.Integral)
        or max_new_tokens < 0
    ):
        raise ConfigError(
            f"max_new_tokens must be an int >= 0, got {max_new_tokens!r}"
        )


@dataclass
class GenerationConfig:
    """Decoding parameters (defaults mirror the paper's setup)."""

    max_new_tokens: int = 2048
    temperature: float = 0.8
    stop_strings: Sequence[str] = field(default_factory=lambda: ("endmodule",))
    #: include the stop string in the returned text (the paper's harness
    #: stops *at* the first endmodule, keeping it, so the module closes)
    include_stop: bool = True

    def __post_init__(self) -> None:
        check_max_new_tokens(self.max_new_tokens)
        check_temperature(self.temperature)


def _stop_cut(
    out: bytearray,
    since: int,
    last: int,
    stops: Sequence[bytes],
    reach: int,
    include_stop: bool,
) -> int:
    """Where generation cuts ``out`` once the bytes from ``since`` on have
    been appended token by token, the last token's bytes starting at
    ``last``: -1 if no stop string ends in them, :data:`_STOP_INSIDE` if
    one completes before the last token.

    ``out[:since]`` holds no stop string, so one that ends in the new
    bytes starts at most ``reach`` bytes before them, and each stop's
    first occurrence from there is the one the token-by-token check
    finds first.
    """
    cut = -1
    for stop in stops:
        pos = out.find(stop, since - reach if since > reach else 0)
        if pos >= 0:
            end = pos + len(stop)
            if end <= last:
                return _STOP_INSIDE
            if not include_stop:
                end = pos
            cut = end if cut < 0 else min(cut, end)
    return cut


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
        # and ``ctx_hash`` that context's hash (None: the sequence is
        # still shorter than the top order).  A step is one rolling-hash
        # update and a probe; a context the top order cannot answer backs
        # off through the lower orders statelessly.  A row with one
        # continuation starts a run of such steps, which depends on the
        # top-order context alone: the view's run memo replays it in one
        # step, and a miss records it as it is stepped.
        lm = self.lm
        top = lm.view(lm.counts.orders[0])
        lower_orders = lm.counts.orders[1:]
        order = top.order
        single, rows, roll, runs = top.single, top.rows, top.roll, top.runs
        row, ctx_hash = -1, None
        top_order = sampled = rehashed = replayed = 0
        # the run being recorded: its context (None: none) and where it
        # starts in ``sequence`` and in ``out``
        run_context = None
        run_at = run_out = 0

        token_bytes = self.tokenizer.token_bytes
        stops = [s.encode("utf-8") for s in config.stop_strings if s]
        # A stop string that ends in new bytes starts at most this many
        # bytes before them.
        reach = max((len(s) for s in stops), default=1) - 1
        include_stop = config.include_stop
        out = bytearray()
        left = config.max_new_tokens

        while left > 0:
            if ctx_hash is None and len(sequence) >= order:
                ctx_hash = hash_context(sequence, order)
                row = rows.get(ctx_hash, -1)
                rehashed += 1
            if row >= 0 and single[row] >= 0:
                if run_context is None:
                    context = tuple(sequence[-order:])
                    run = runs.get(context)
                    if run is None:
                        run_context, run_at, run_out = context, len(sequence), len(out)
                    elif len(run[0]) <= left:
                        tokens, data, last, end_row, end_hash = run
                        since = len(out)
                        out += data
                        # The run is the per-token loop's unless a stop
                        # string completes before its last token.
                        cut = _stop_cut(
                            out, since, since + last, stops, reach, include_stop
                        )
                        if cut != _STOP_INSIDE:
                            sequence += tokens
                            left -= len(tokens)
                            top_order += len(tokens)
                            replayed += len(tokens)
                            row, ctx_hash = end_row, end_hash
                            if cut >= 0:
                                del out[cut:]
                                break
                            continue
                        del out[since:]
                token = single[row]
                top_order += 1
            else:
                if run_context is not None:
                    top.record_run(
                        run_context, tuple(sequence[run_at:]),
                        bytes(out[run_out:]), since - run_out, row, ctx_hash,
                    )
                    run_context = None
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
            left -= 1
            if ctx_hash is not None:
                ctx_hash = roll(ctx_hash, token, sequence[~order])
                row = rows.get(ctx_hash, -1)

            since = len(out)
            out += token_bytes(token)
            cut = _stop_cut(out, since, since, stops, reach, include_stop)
            if cut >= 0:
                if run_context is not None:
                    # a run that ends in a stop is memoised uncut
                    top.record_run(
                        run_context, tuple(sequence[run_at:]),
                        bytes(out[run_out:]), since - run_out, row, ctx_hash,
                    )
                del out[cut:]
                break

        # One metrics write per completion, not per token.
        obs.count("sampler.tokens", len(sequence) - n_prompt)
        obs.count("sampler.completions")
        obs.count("sampler.tokens_top_order", top_order)
        obs.count("sampler.tokens_sampled", sampled)
        obs.count("sampler.state_rehash", rehashed)
        obs.count("sampler.tokens_replayed", replayed)
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
            self.generate(prompt, config, seed=fork_seed(seed, i))
            for i in range(n)
        ]
