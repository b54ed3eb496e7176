"""Exact cube-structure analysis of finitely presented Z^d-systems.

The package enumerates directional dynamical cubes of finite commuting
permutation systems, decides unique cube completion, extracts the
directional proximality relations and their quotients, checks the joining
decomposition of based cube sets, computes return-time sets with their
d-joining algebra, and tests the matrix conditions and closed orbit formula
of unipotent affine systems on rational tori.  Everything is computed
exactly; cube sets are sorted int32 arrays and the hot kernels are numpy
array operations.
"""

from .affine import (AffineZdSystem, affine_to_text, closed_form, discretize,
                     formula_equivalence_test, iterate_word, load_affine,
                     matcond_check, parse_affine, validate_affine)
from .cube_engine import (CubePoint, CubeSet, enumerate_K, enumerate_Q,
                          face_group_generators, face_group_orbit, section_of,
                          ucpp_check)
from .errors import HypothesisError, InputError
from .finite_system import (FactorMap, FiniteZdSystem, PairRelation,
                            check_factor_map, is_minimal, load_finite_system,
                            parse_finite_system, quotient, to_text, validate)
from .hypercube import Vertex, digit_permute, embed_face
from .kernels import backend_name
from .proximal import (check_equivalence, compute_R, compute_R_j,
                       maximal_ucpp_factor, pushforward_check)
from .return_times import (PeriodicSet, contains_zero_vector, d_joining,
                           drop_generator, insert_identity_generator,
                           joining_containment_check, phi_image,
                           product_system_realization, return_set)
from .structure import (SubgroupSpec, decompose, factor_isomorphism_check,
                        iterated_quotient_check, maximal_trivial_H_factor,
                        relative_independence_check, z0h_universality_check)

__version__ = "1.0.0"

__all__ = [
    "AffineZdSystem", "CubePoint", "CubeSet", "FactorMap", "FiniteZdSystem",
    "HypothesisError", "InputError", "PairRelation", "PeriodicSet",
    "SubgroupSpec", "Vertex",
    "affine_to_text", "backend_name", "check_equivalence", "check_factor_map",
    "closed_form", "compute_R", "compute_R_j", "contains_zero_vector",
    "d_joining", "decompose", "digit_permute", "discretize", "drop_generator",
    "embed_face", "enumerate_K", "enumerate_Q", "face_group_generators",
    "face_group_orbit", "factor_isomorphism_check", "formula_equivalence_test",
    "insert_identity_generator", "is_minimal", "iterate_word",
    "iterated_quotient_check", "joining_containment_check", "load_affine",
    "load_finite_system", "matcond_check", "maximal_trivial_H_factor",
    "maximal_ucpp_factor", "parse_affine", "parse_finite_system", "phi_image",
    "product_system_realization", "pushforward_check", "quotient",
    "return_set", "section_of", "to_text", "ucpp_check", "validate",
    "validate_affine", "z0h_universality_check",
]
