"""Knuth-Bendix completion and the noncommutative Buchberger algorithm,
run in lockstep.

The string-rewriting engine completes semigroup/monoid presentations; the
polynomial engine completes free-algebra ideal bases over exact fields.
For a rule set R and the basis of two-term polynomials {l - r}, the
lockstep driver runs both engines pass by pass and verifies that they
correspond at every step.
"""

from .correspondence import (
    NonBinomialError,
    basis_to_rules,
    lockstep_passes,
    rules_to_basis,
    verify_algebra_iso,
)
from .completion import (
    CompletionLimits,
    LimitExceeded,
    PairRecord,
    PassRecord,
    ReductionBudgetExceeded,
)
from .ncpoly import (
    QQ,
    Basis,
    NcPolynomial,
    PrimeField,
    buchberger,
    buchberger_pass,
    field_from_name,
    is_pm_binomial,
    leading_monomial,
    make_monic,
    monomials_equal_mod_ideal,
    poly_normal_form,
    render_poly,
    s_polynomials,
)
from .presentation import (
    ParseError,
    parse_presentation,
)
from .rewriting import (
    MONOID,
    SEMIGROUP,
    RewriteSystem,
    Rule,
    critical_pairs,
    is_irreducible,
    kb_pass,
    knuth_bendix,
    normal_form,
    words_equal,
)
from .words import (
    Alphabet,
    AlphabetMismatch,
    MonomialOrder,
    Word,
)

__version__ = "0.1.0"
