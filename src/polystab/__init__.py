"""Exact homology of polynomial-tuple spaces and their stable limits.

The package computes, with no floating point anywhere:

* Smith normal form and homology of finite integer chain complexes;
* homology of planar unordered configuration spaces with trivial or
  sign-twisted rank-one coefficients, from a finite cell model;
* complete homology tables of the spaces of m-tuples of monic degree-d
  polynomials with no common root of multiplicity >= n, of based
  rational-map spaces, and Poincare series of the limiting double loop
  space, via the stable splitting into configuration-space summands;
* first pages of the discriminant spectral sequences, as bookkeeping;
* finite-field membership tests and sieved point counts, and the jet
  map over exact rationals, as independent arithmetic oracles.
"""

__version__ = "0.1.0"

from .abelian import AbelianGroup, GradedAbelianGroup, invariant_factors
from .braid import (
    DEFAULT_K_MAX,
    SIGN,
    TRIVIAL,
    CellModelError,
    config_homology,
    dk_homology,
    dual_fn_complex,
    shuffle_sum,
)
from .cache import BraidHomologyKey, HomologyCache, default_cache_dir
from .complexes import ChainComplex, complex_homology
from .ffield import (
    FpTuple,
    closed_form_count,
    count_points,
    is_member,
    max_common_multiplicity,
    squarefree_multiplicities,
)
from .jets import (
    JetEquivalenceReport,
    QTuple,
    jet_equivalence_check,
    jet_map,
    q_membership_hol,
    q_membership_poly,
)
from .linalg import IntMatrix, SmithForm, smith_normal_form
from .poly import Poly, poly_gcd
from .rings import GF, Q, Ring, Z, parse_ring
from .spaces import (
    E1Page,
    HomologyTable,
    Params,
    PoincareSeries,
    e1_page_hol,
    e1_page_poly,
    hol_homology,
    omega_series,
    poly_homology,
    stability_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
