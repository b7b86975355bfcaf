"""Intuitionistic logic on finite frames and rational polyhedra.

Formulae, finite posets as Kripke frames, finite Heyting algebras of
up-sets with their duality, exact-rational simplicial complexes with
definable-set algebras, nerve realizations, and countermodel transfer.
The lower sets Lo(P) are handled as the up-sets Up(P.op()) of the
opposite order; their co-implication is ``P.down_closure(c & ~d)``.
"""

from .algebra import (
    FiniteHeyting,
    eval_formula,
    is_valid,
    join_irreducibles,
    spec,
    stone_map,
    up_of_pmorphism,
)
from .errors import PolylogicError
from .formula import Atom, Bottom, Formula, Top, And, Or, Implies, atoms, bd, neg, parse, pretty
from .nerve import max_pmorphism, nerve, realize, transfer_countermodel
from .pipeline import (
    decide_in_bd_logic,
    find_frame_countermodel,
    polyhedral_countermodel,
    verify_dim_bd,
    verify_esakia,
    verify_hneg,
    verify_ji,
    verify_nerve,
)
from .poset import MonotoneMap, Poset, enumerate_posets, from_covers, is_pmorphism
from .simplicial import (
    Complex,
    DefinableSet,
    build_complex,
    co_implication,
    heyting_implication,
    is_closed_pseudomanifold,
    sample_points,
    verify_complex,
)

__version__ = "0.1.0"
