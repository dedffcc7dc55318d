"""Problem set construction.

Problems are held-out draws from the same generator families that
populate the training corpora (disjoint seed space), in the
VerilogEval-Human prompt format::

    // <English description>
    module <name>(<ports>);

The model must produce the body up to ``endmodule``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

from repro.utils.rng import DeterministicRNG
from repro.vgen import family_names, generate_family
from repro.vgen.base import GeneratedModule, Style

#: seed namespace for problems; corpus generation uses different labels,
#: keeping the eval set out of every training set by construction.
_PROBLEM_SEED_LABEL = "vereval-problem"


@dataclass
class EvalProblem:
    """One benchmark problem."""

    problem_id: str
    module: GeneratedModule
    stimulus_cycles: int = 24
    stimulus_seed: int = 0

    @property
    def description(self) -> str:
        return self.module.description

    def prompt(self) -> str:
        """Description comment + module header, VerilogEval-Human style."""
        return self._prompt

    @cached_property
    def _prompt(self) -> str:
        # wrapped once per problem: every sample and checker call reads it
        lines = [f"// {line}" for line in _wrap(self.description, 72)]
        return "\n".join(lines) + "\n" + self.module.header_prompt()

    @property
    def golden_source(self) -> str:
        return self.module.source


def _wrap(text: str, width: int) -> List[str]:
    words = text.split()
    lines: List[List[str]] = [[]]
    count = 0
    for word in words:
        if count + len(word) + 1 > width and lines[-1]:
            lines.append([])
            count = 0
        lines[-1].append(word)
        count += len(word) + 1
    return [" ".join(line) for line in lines if line]


def build_problem_set(
    n_problems: int = 60,
    seed: int = 0xE7A1,
    families: Optional[Sequence[str]] = None,
    stimulus_cycles: int = 24,
) -> List[EvalProblem]:
    """Build the held-out problem set, round-robin over families.

    The canonical (flavor-0, four-space) style keeps prompts uniform, the
    way VerilogEval presents a fixed header per problem.
    """
    chosen = list(families if families is not None else family_names())
    problems: List[EvalProblem] = []
    style = Style(indent="    ", comment="none", signal_flavor=0)
    index = 0
    attempt = 0
    seen_names = set()
    while len(problems) < n_problems:
        family = chosen[index % len(chosen)]
        rng = DeterministicRNG(seed).fork(_PROBLEM_SEED_LABEL, family, attempt)
        module = generate_family(family, rng, style)
        attempt += 1
        if module.name in seen_names:
            # Same module name with a different spec would collide in
            # prompts; skip redraws of an identical interface name.
            if attempt > 40 * n_problems:
                break
            index += 1
            continue
        seen_names.add(module.name)
        problems.append(
            EvalProblem(
                problem_id=f"p{len(problems):03d}_{family}",
                module=module,
                stimulus_cycles=stimulus_cycles,
                stimulus_seed=DeterministicRNG(seed).fork("stim", family, attempt).seed,
            )
        )
        index += 1
    return problems
