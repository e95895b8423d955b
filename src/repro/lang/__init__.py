"""The ``sjava`` mini-language substrate.

The paper's artifact is a compiler front end for Java.  This package
implements, from scratch, the Java-like language that all of the SJava
machinery (the location type system, the static analyses, and the
annotation inference algorithm) operates on: a lexer, a parser producing a
typed AST, symbol tables, a conventional type checker, control-flow
graphs, and a call graph.

The public entry point is :func:`repro.lang.parse_program`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ast": ("Program",),
    "lexer": ("LexError", "tokenize"),
    "parser": ("ParseError", "parse_program"),
    "symtab": ("ProgramInfo", "resolve_program"),
    "typecheck": ("FRONT_END_ERRORS", "JavaTypeError", "typecheck_program"),
})
