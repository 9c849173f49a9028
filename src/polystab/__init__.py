"""Exact homology of polynomial-tuple spaces and their stable limits.

The package computes, with no floating point anywhere:

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

# Exports resolve on first use (PEP 562): a caller loads only the modules it touches.  complexes and linalg
# export their module alone: the dense oracle and the kernel are imported from it.
_EXPORTS = {
    "abelian": "AbelianGroup GradedAbelianGroup invariant_factors",
    "braid": "SIGN TRIVIAL CellModelError config_homology dk_homology shuffle_sum",
    "cache": "BraidHomologyKey HomologyCache default_cache_dir",
    "complexes": "",
    "ffield": "closed_form_count count_points",
    "jets": "JetEquivalenceReport QTuple jet_equivalence_check jet_map q_membership_hol q_membership_poly",
    "linalg": "",
    "poly": "Poly poly_gcd",
    "rings": "DEFAULT_K_MAX GF Q Ring Z parse_ring",
    "spaces": "E1Page HomologyTable Params PoincareSeries e1_page_hol e1_page_poly hol_homology "
    "omega_series poly_homology stability_dimension",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name not in _EXPORTS and name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_HOME.get(name, name)}")
    return module if name in _EXPORTS else getattr(module, name)
