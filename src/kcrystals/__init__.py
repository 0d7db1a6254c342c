"""
Exact combinatorics of K-crystals on semistandard set-valued tableaux:
Lascoux and Grothendieck polynomials via divided-difference operators,
Kohnert and skyline models, key tableaux, and exhaustive small-rank
verification suites.
"""

from types import ModuleType as _Module

from .crystal import (
    atom_subset,
    beta_character,
    crystal_e,
    crystal_f,
    decompose,
    demazure_subset,
    flagged_set,
    ik_strings,
    kcrystal_e,
    kcrystal_f,
)
from .kohnert import (
    KKohnertDiagram,
    closure,
    initial_diagram,
    phi,
    phi_inverse,
    svt_kohnert_move,
)
from .permutations import (
    Perm,
    avoids_pattern,
    bruhat_ideal,
    bruhat_leq,
    coset_reps,
    flag_vector,
    lehmer_code,
    length,
    reduced_word,
    reduced_words,
    stabilizer_min_rep,
)
from .polynomials import (
    BetaPolynomial,
    grothendieck,
    lascoux,
    lascoux_atom,
    parse_polynomial,
)
from .skyline import SkylineTableau, enumerate_skyline, psi, psi_inverse, validate_skyline
from .tableaux import SetValuedTableau, enumerate_svt, superstandard

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _Module)]
