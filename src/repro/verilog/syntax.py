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
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import LexError, ParseError
from repro.verilog import ast
from repro.verilog.lexer import lex
from repro.verilog.parser import MODULE_KEYWORDS, Parser, lex_stream
from repro.verilog.tokens import K_EOF

#: a module table: token-range digest -> (module name, module-local lint)
ModuleTable = Dict[bytes, Tuple[str, Tuple[str, ...]]]
#: a table is cleared when it reaches this many entries
MODULE_TABLE_BOUND = 1 << 13


@dataclass
class SyntaxReport:
    """Outcome of checking a single Verilog file."""

    ok: bool
    errors: List[str] = field(default_factory=list)
    module_names: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _module_lint(module: ast.Module) -> List[str]:
    """The checks of :func:`_semantic_lint` that read one module only."""
    errors: List[str] = []
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


def _file_lint(modules: Sequence[Tuple[str, Sequence[str]]]) -> List[str]:
    """A file's lint from its modules' ``(name, module-local errors)`` in
    source order: a duplicate name is reported where it recurs, before
    that module's own errors."""
    errors: List[str] = []
    seen_modules = set()
    for name, local in modules:
        if name in seen_modules:
            errors.append(f"duplicate module definition {name!r}")
        seen_modules.add(name)
        errors.extend(local)
    return errors


def _semantic_lint(source_file: ast.SourceFile) -> List[str]:
    """Cheap per-file checks Icarus would also report without elaboration."""
    return _file_lint(
        [(module.name, _module_lint(module)) for module in source_file.modules]
    )


def check_with_lexer(
    source: str, lexer, table: Optional[ModuleTable] = None
) -> SyntaxReport:
    """The full verdict pipeline over any token source.

    ``lexer`` maps source text to its tokens (the reference
    :func:`repro.verilog.lexer.lex`'s list or the accelerated
    ``lex_fast``'s stream); everything downstream — parse, error capture,
    lint — is shared so the two entry points cannot drift apart.

    The stream is read module by module, as ``Parser.parse_source`` reads
    it, through ``table`` (a fresh one per call when None): a module's
    range runs from its ``module`` / ``macromodule`` keyword to the first
    ``endmodule`` keyword after it and is keyed by its
    :meth:`~repro.verilog.tokens.TokenStream.digest`.  A range already in
    the table was accepted before and is skipped; any other is parsed
    (``Parser.parse_module_at``), and stored if it parses.  This is the
    whole-file verdict, error text included:

    * a successful module parse consumes exactly that range and reads no
      token outside it, and its outcome and its module-local lint
      (:func:`_module_lint`) depend only on the range's kinds and symbols
      — token lines feed AST fields the lint never reads — so a stored
      range parses, wherever it recurs, as it did when stored;
    * only accepted ranges are stored, so the first range that fails (a
      bad module, stray top-level tokens, a missing ``endmodule``) is
      parsed at the position and parser state the whole-file parse would
      reach, and raises its error; an empty source raises it too;
    * the one cross-module check, a duplicate module name, is redone per
      file from the names (:func:`_file_lint`).

    The table is an accelerator and never an authority: emptying it at
    any point changes no report.  It is cleared when it reaches
    ``MODULE_TABLE_BOUND`` entries.  ``verilog.modules_parsed`` and
    ``verilog.modules_reused`` count, once per source, the ranges the
    parser ran on and the ones the table decided.
    """
    if table is None:
        table = {}
    modules: List[Tuple[str, Tuple[str, ...]]] = []
    parsed = reused = 0
    try:
        stream = lex_stream(source, lexer)
        with obs.span("verilog.parse"):
            kinds, syms = stream.kinds, stream.syms
            parser = None
            pos = 0
            while kinds[pos] != K_EOF:
                key = stop = None
                if syms[pos] in MODULE_KEYWORDS:
                    try:
                        stop = syms.index("endmodule", pos) + 1
                    except ValueError:
                        pass
                    else:
                        key = stream.digest(pos, stop)
                        entry = table.get(key)
                        if entry is not None:
                            modules.append(entry)
                            reused += 1
                            pos = stop
                            continue
                if parser is None:
                    parser = Parser(stream)
                parsed += 1
                module, pos = parser.parse_module_at(pos)
                assert pos == stop  # see the docstring's first point
                entry = (module.name, tuple(_module_lint(module)))
                if len(table) >= MODULE_TABLE_BOUND:
                    table.clear()
                table[key] = entry
                modules.append(entry)
            if not modules:
                raise ParseError("source contains no modules")
    except (LexError, ParseError) as exc:
        return SyntaxReport(ok=False, errors=[str(exc)])
    finally:
        obs.count("verilog.modules_parsed", parsed)
        obs.count("verilog.modules_reused", reused)
    errors = _file_lint(modules)
    return SyntaxReport(
        ok=not errors,
        errors=errors,
        module_names=[name for name, _ in modules],
    )


def check_syntax(source: str) -> SyntaxReport:
    """Check whether ``source`` is well-formed under the supported subset.

    Returns a :class:`SyntaxReport`; never raises for malformed input.
    """
    return check_with_lexer(source, lex)
