"""Minimal involutive bases of polynomial ideals over the rationals.

The package computes involutive bases (Janet, Thomas, or generated by an
auxiliary ordering) of ideals in Q[x1..xn] with a signature-based
completion that skips provably redundant reductions, plus a plain
completion loop and independent verification oracles.
"""
from __future__ import annotations

from .core import (
    ALEX,
    DEGREVLEX,
    EQUAL,
    GREATER,
    LESS,
    LEX,
    Monomial,
    Ordering,
    Polynomial,
    UsageError,
    VarSet,
    alex,
    degrevlex,
    lex,
    mono_div,
    mono_lcm,
    mono_mul,
    mono_one,
    mono_var,
    ordering_by_name,
    render_monomial,
    render_polynomial,
    spoly,
)
from .division import (
    AxiomsReport,
    Division,
    Partition,
    alex_division,
    axioms_check,
    division_by_name,
    janet,
    minimal_completion,
    thomas_completion,
    thomas_division,
)
from .engine import (
    CofactorRecord,
    CompletionResult,
    EngineOptions,
    Stats,
    inv_bas,
    inv_comp,
    min_bas,
    nf_full,
)
from .oracles import (
    admissibility_check,
    buchberger_nf,
    expand_cofactors,
    is_groebner,
    is_involutive,
)
from .signatures import (
    Signature,
    SigPoly,
    Verdict,
    criteria,
    sig_cmp,
    sig_mul,
)
from .systems import (
    ParseError,
    SystemFile,
    gen_cyclic,
    gen_katsura,
    load_builtin,
    load_system_file,
    parse_polynomial,
    parse_system,
    render_system,
)

__version__ = "0.1.0"
