"""Intuitionistic logic on finite frames and rational polyhedra.

Formulae, finite posets as Kripke frames, finite Heyting algebras of
up-sets with their duality, exact-rational simplicial complexes with
definable-set algebras, nerve realizations, and countermodel transfer.
The lower sets Lo(P) are handled as the up-sets Up(P.op()) of the
opposite order; their co-implication is ``P.down_closure(c & ~d)``.

Import from the submodules (``polylogic.formula``, ``polylogic.poset``,
``polylogic.simplicial``, ...): the package itself imports none of them,
so a process loads only the modules it uses.
"""

__version__ = "0.1.0"
