"""Exact combinatorics and simulation for planar last passage percolation.

The quarter-square passage-time law factors as the product of a half-space
law and a point-to-line law; this package verifies that identity exactly at
desk scale (growth bijections, character determinants, bounded sums) and
probes its KPZ-scale consequences by seeded Monte Carlo.
"""

from .characters import (
    LaurentPolynomial,
    bounded_character_sum,
    box_partitions,
    character_jt,
    character_tab,
    okada_product,
    product_of_variables,
)
from .growth import (
    col_rsk_local,
    greene_oracle,
    grow,
    grow_grid,
    invert_local,
    row_rsk_local,
    ungrow,
)
from .lpp import (
    EnumerationBudgetError,
    Filling,
    Geometry,
    bz_map,
    degree_series,
    generating_series,
    lpp_time,
    oscillating_tableau,
    p2l_map,
    weight_of,
)
from .partitions import (
    EMPTY,
    GTPattern,
    Partition,
    SpGTPattern,
    enumerate_patterns,
    gt_type,
    interlaces,
)
from .probability import (
    GeometricSpec,
    ScalingConstants,
    SimulationReport,
    exact_cdf,
    factorization_report,
    sample_lpp,
    sample_passage_times,
    scaling_constants,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "EnumerationBudgetError",
    "Filling",
    "GTPattern",
    "Geometry",
    "GeometricSpec",
    "LaurentPolynomial",
    "Partition",
    "ScalingConstants",
    "SimulationReport",
    "SpGTPattern",
    "bounded_character_sum",
    "box_partitions",
    "bz_map",
    "character_jt",
    "character_tab",
    "col_rsk_local",
    "degree_series",
    "enumerate_patterns",
    "exact_cdf",
    "factorization_report",
    "generating_series",
    "greene_oracle",
    "grow",
    "grow_grid",
    "gt_type",
    "interlaces",
    "invert_local",
    "lpp_time",
    "okada_product",
    "oscillating_tableau",
    "p2l_map",
    "product_of_variables",
    "row_rsk_local",
    "sample_lpp",
    "sample_passage_times",
    "scaling_constants",
    "ungrow",
    "weight_of",
]
