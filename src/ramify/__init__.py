"""Invariants of totally ramified extensions of p-adic fields.

Enumerate ramification polygons, their residue-decorated refinements and
uniformizer-residue classes for a chosen base field and degree; build the
finite, reduced Eisenstein-polynomial templates realising each invariant;
and analyze explicit Eisenstein polynomials back into the same invariants.
All arithmetic is exact, over integers, rationals and small finite fields.
"""

from .analyzer import (
    EisensteinData,
    NotEisensteinError,
    brute_force_survey,
    fine_of,
    parse_integer_polynomial,
    polygon_of,
    residues_of,
    unif_of,
)
from .binomials import B, BinomialContext, S_p, U_p, beta, vp, vp_factorial
from .enumeration import (
    EnumStats,
    Level,
    enumerate_fine_polygons,
    enumerate_invariants,
    enumerate_ram_polygons,
    enumerate_residue_classes,
    enumerate_unif_classes,
)
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    ResidualPolynomial,
    decompose,
    residual_polynomials,
)
from .residue_field import (
    AdditiveMap,
    BaseField,
    FqElement,
    additive_coset_representatives,
    make_field,
    orbit_representatives,
    solve_power_system,
)
from .templates import (
    SmData,
    Template,
    cardinality,
    compute_Sm,
    eisenstein_template,
    expand_template,
    reduce_template,
    template_for_fine,
    template_for_invariant,
    template_for_polygon,
    truncate_krasner,
)
from .validity import (
    ValidityReport,
    Violation,
    admissible_phi0,
    equivalent_res,
    equivalent_with_unif,
    is_valid_fine,
    is_valid_ram,
    is_valid_with_unif,
    is_weakly_valid_fine,
    is_weakly_valid_ram,
)

__version__ = "0.1.0"
