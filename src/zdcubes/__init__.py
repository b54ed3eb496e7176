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
from .cube_engine import (CubePoint, CubeSet, digit_permute_point, duplicate,
                          enumerate_K, enumerate_Q, face_group_generators,
                          face_group_orbit, glue, insert, project,
                          reflect_point, section_of, ucpp_check)
from .errors import HypothesisError, InputError
from .finite_system import (FactorMap, FiniteZdSystem, PairRelation,
                            apply_word, check_factor_map, is_minimal,
                            load_finite_system, parse_finite_system, quotient,
                            to_text, validate)
from .hypercube import (FaceSelector, Vertex, all_vertices, digit_permute,
                        embed_face, face_vertices, reflect)
from .kernels import backend_name
from .proximal import (build_z, characterize, check_equivalence, compute_R,
                       compute_R_j, maximal_ucpp_factor, proximal_report,
                       pushforward_check)
from .return_times import (PeriodicSet, contains_zero_vector, d_joining,
                           drop_generator, insert_identity_generator,
                           intersects, joining_containment_check, phi_image,
                           product_system_realization, return_set)
from .structure import (SubgroupSpec, compute_QH, decompose,
                        factor_isomorphism_check, iterated_quotient_check,
                        maximal_Z0H_factor, maximal_trivial_H_factor,
                        relative_independence_check, z0h_universality_check)

__version__ = "1.0.0"

__all__ = [
    "AffineZdSystem", "CubePoint", "CubeSet", "FaceSelector", "FactorMap",
    "FiniteZdSystem", "HypothesisError", "InputError", "PairRelation",
    "PeriodicSet", "SubgroupSpec", "Vertex",
    "affine_to_text", "all_vertices", "apply_word", "backend_name",
    "build_z", "characterize", "check_equivalence", "check_factor_map",
    "closed_form", "compute_QH", "compute_R", "compute_R_j",
    "contains_zero_vector", "d_joining", "decompose", "digit_permute",
    "digit_permute_point", "discretize", "drop_generator", "duplicate",
    "embed_face", "enumerate_K", "enumerate_Q", "face_group_generators",
    "face_group_orbit", "face_vertices", "factor_isomorphism_check",
    "formula_equivalence_test", "glue", "insert", "insert_identity_generator",
    "intersects", "is_minimal", "iterate_word", "iterated_quotient_check",
    "joining_containment_check", "load_affine", "load_finite_system",
    "matcond_check", "maximal_Z0H_factor", "maximal_trivial_H_factor",
    "maximal_ucpp_factor", "parse_affine", "parse_finite_system", "phi_image",
    "product_system_realization", "project", "proximal_report",
    "pushforward_check", "quotient", "reflect", "reflect_point", "return_set",
    "section_of", "to_text", "ucpp_check", "validate", "validate_affine",
    "z0h_universality_check",
]
