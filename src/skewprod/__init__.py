"""Finite-scale verification workbench for the C*-algebras of skew-product
graphs and groupoids: Cuntz-Krieger families, coactions and their crossed
products, group actions and their crossed products, convolution algebras,
equivalence bimodules, and Wedderburn signatures, all in concrete matrices.
"""
from . import crossed, duality, graphalg, graphs, groupoids, groups, matalg, suite
from .duality import (
    certify_direct_iso,
    certify_eqvt_iso,
    certify_free_action,
    certify_regular_diagram,
)
from .graphalg import ck_representation, coaction, gauge_check
from .graphs import DirectedGraph, enumerate_sink_paths, skew_product, translation_action
from .groups import FiniteGroup, cyclic_group, klein_four_group, make_group, make_labeling
from .groupoids import (
    certify_equivalence,
    certify_full_groupoid,
    certify_gpd_iso,
    certify_semi_cross,
    convolution_algebra,
    make_groupoid,
    semidirect_product,
    skew_product_groupoid,
)
from .matalg import AlgebraSpan, span_closure, wedderburn_signature

def fixture_path(name: str):
    """Path to one of the shipped JSON fixtures (e1, chain2, chain-s3,
    pair-groupoid, s3-groupoid, q3-s3, z2, z3, z4, klein, s3, trivial)."""
    from importlib.resources import files

    return files("skewprod.fixtures") / f"{name}.json"
