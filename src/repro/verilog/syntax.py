"""Syntax checking — the reproduction's stand-in for Icarus Verilog 10.3.

The paper (Sec. III-D2) compiles every candidate file with Icarus and drops
files with *syntax-specific* errors, deliberately tolerating unresolved
references to modules defined in other files.  :func:`check_syntax` has the
same contract: it runs the lexer and parser and additionally applies a few
cheap semantic sanity checks that Icarus reports at compile time even
without elaboration (duplicate module names, duplicate port declarations).
Cross-file references (instantiating an unknown module) are *not* errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import LexError, ParseError
from repro.verilog import ast
from repro.verilog.lexer import lex
from repro.verilog.parser import parse_with_lexer


@dataclass
class SyntaxReport:
    """Outcome of checking a single Verilog file."""

    ok: bool
    errors: List[str] = field(default_factory=list)
    module_names: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _semantic_lint(source_file: ast.SourceFile) -> List[str]:
    """Cheap per-file checks Icarus would also report without elaboration."""
    errors: List[str] = []
    seen_modules = set()
    for module in source_file.modules:
        if module.name in seen_modules:
            errors.append(f"duplicate module definition {module.name!r}")
        seen_modules.add(module.name)

        seen_ports = set()
        for port in module.ports:
            if port.name in seen_ports:
                errors.append(
                    f"module {module.name!r}: duplicate port {port.name!r}"
                )
            seen_ports.add(port.name)

        # Ports listed in the header must be declared (ANSI headers declare
        # inline; non-ANSI must declare in the body).
        declared = {port.name for port in module.ports}
        for name in module.port_order:
            if name not in declared:
                errors.append(
                    f"module {module.name!r}: port {name!r} never declared"
                )

        seen_params = set()
        for param in module.params:
            if param.name in seen_params:
                errors.append(
                    f"module {module.name!r}: duplicate parameter {param.name!r}"
                )
            seen_params.add(param.name)
    return errors


def check_with_lexer(source: str, lexer) -> SyntaxReport:
    """The full verdict pipeline over any token source.

    ``lexer`` maps source text to its tokens (the reference
    :func:`repro.verilog.lexer.lex`'s list or the accelerated
    ``lex_fast``'s stream); everything downstream — parse, error capture,
    lint — is shared so the two entry points cannot drift apart.
    """
    try:
        source_file = parse_with_lexer(source, lexer)
    except (LexError, ParseError) as exc:
        return SyntaxReport(ok=False, errors=[str(exc)])
    errors = _semantic_lint(source_file)
    return SyntaxReport(
        ok=not errors,
        errors=errors,
        module_names=[m.name for m in source_file.modules],
    )


def check_syntax(source: str) -> SyntaxReport:
    """Check whether ``source`` is well-formed under the supported subset.

    Returns a :class:`SyntaxReport`; never raises for malformed input.
    """
    return check_with_lexer(source, lex)
