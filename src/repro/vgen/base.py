"""Shared infrastructure for the RTL generator families."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.utils.rng import DeterministicRNG


@dataclass
class ModuleInterface:
    """Testbench-facing description of a generated module's ports."""

    module_name: str
    clock: Optional[str] = None
    reset: Optional[str] = None
    reset_active_high: bool = True
    inputs: List[Tuple[str, int]] = field(default_factory=list)
    outputs: List[Tuple[str, int]] = field(default_factory=list)


@dataclass
class GeneratedModule:
    """One generated RTL module plus everything its consumers need."""

    family: str
    source: str
    interface: ModuleInterface
    description: str
    params: Dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.interface.module_name

    def header_prompt(self) -> str:
        """The module-header portion used as the VerilogEval-style prompt:
        everything up to and including the port list's closing ``);``."""
        idx = self.source.index(");")
        return self.source[: idx + 2] + "\n"


@dataclass
class Style:
    """Surface-style knobs applied uniformly within one generated file.

    Style variation keeps same-family files from being trivial duplicates,
    which matters for the de-duplication experiments: only *copied* files
    (injected separately by the corpus builder) should be near-duplicates.
    """

    indent: str = "    "
    comment: str = "short"  # none | short | banner
    lowercase_keep: bool = True
    signal_flavor: int = 0  # index into per-family synonym tables

    def comment_block(self, title: str, lines: Optional[List[str]] = None) -> str:
        if self.comment == "none":
            return ""
        if self.comment == "short":
            return f"// {title}\n"
        bar = "//" + "-" * 66 + "\n"
        body = "".join(f"// {line}\n" for line in (lines or [title]))
        return bar + body + bar


_INDENTS = ["  ", "    ", "   "]
_COMMENTS = ["none", "short", "banner"]


def random_style(rng: DeterministicRNG) -> Style:
    """Draw a random surface style."""
    return Style(
        indent=rng.choice(_INDENTS),
        comment=rng.choice(_COMMENTS),
        signal_flavor=rng.randint(0, 3),
    )


def pick(options: List[str], style: Style) -> str:
    """Pick a synonym by the style's flavor index (stable within a file)."""
    return options[style.signal_flavor % len(options)]


def reindent(body: str, style: Style) -> str:
    """Re-indent generator template text (written with 4-space levels)."""
    out_lines = []
    for line in body.splitlines():
        stripped = line.lstrip(" ")
        level = (len(line) - len(stripped)) // 4
        out_lines.append(style.indent * level + stripped)
    return "\n".join(out_lines)


def width_phrase(width: int) -> str:
    return f"{width}-bit" if width > 1 else "1-bit"
