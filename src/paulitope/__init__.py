"""Exact machinery for generalized Pauli constraints on fermionic systems.

The package computes Schubert polynomials and their structure coefficients,
reconstructs occupation-number inequalities from test-spectrum triples,
evaluates one-particle density matrices of explicit wedge states, generates
closed inequality families, decomposes plethysms, and runs an exact
inner and outer approximation loop for moment polytopes.
"""

from .coefficients import (
    TestSpectrumTriple,
    coefficient,
    induced_spectrum,
    inequality_to_triple,
    verify_table,
)
from .errors import MinimalityError, ResourceLimitError, UnmatchedInequalityError
from .generators import (
    InequalityFamily,
    OccupationInequality,
    cgamma_kind1,
    cgamma_kind2,
    grassmann_kind1,
    grassmann_kind2,
    majorization_constraints,
    series_inequality,
)
from .permutations import Permutation
from .plethysm import character, inner_points, schur_decompose
from .polynomials import (
    SparsePoly,
    divided_difference,
    divided_difference_word,
    grassmannian_schubert,
    monk_coefficient,
    monk_multiply,
    schubert_expand,
    schubert_polynomial,
    schur_polynomial,
)
from .polytope import Polytope, facet_match, hull, pipeline, polytope_from_h
from .states import (
    WedgeState,
    dadok_kac_spectrum,
    occupation_numbers,
    one_particle_rdm,
    slater_determinant,
    verify_vertex,
)
from .tableaux import enumerate_ssyt, kostka, littlewood_richardson, partitions_in_box

__version__ = "0.1.0"

__all__ = [
    "MinimalityError",
    "ResourceLimitError",
    "UnmatchedInequalityError",
    "Permutation",
    "SparsePoly",
    "divided_difference",
    "divided_difference_word",
    "schubert_polynomial",
    "schur_polynomial",
    "grassmannian_schubert",
    "schubert_expand",
    "monk_multiply",
    "monk_coefficient",
    "enumerate_ssyt",
    "kostka",
    "littlewood_richardson",
    "partitions_in_box",
    "TestSpectrumTriple",
    "induced_spectrum",
    "coefficient",
    "inequality_to_triple",
    "verify_table",
    "InequalityFamily",
    "OccupationInequality",
    "cgamma_kind1",
    "cgamma_kind2",
    "grassmann_kind1",
    "grassmann_kind2",
    "majorization_constraints",
    "series_inequality",
    "WedgeState",
    "one_particle_rdm",
    "occupation_numbers",
    "dadok_kac_spectrum",
    "slater_determinant",
    "verify_vertex",
    "character",
    "schur_decompose",
    "inner_points",
    "Polytope",
    "hull",
    "polytope_from_h",
    "facet_match",
    "pipeline",
    "__version__",
]
