"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The randomized suites
share session-scoped instance pools: 50 graph cases (acyclic graphs up to
8 vertices / 12 edges; groups Z2, Z3, Z4, Klein four; random labelings),
20 free actions, and 30 groupoid cases (up to 6 units / 24 arrows, mixed
transitive components and isotropy, cocycles into Z2/Z3).  All tolerances
are pinned here, not configured elsewhere.
"""
import time

import numpy as np
import pytest

from skewprod import duality, graphalg, matalg, suite

GRAPH_CASES = 50
FREE_ACTION_CASES = 20
GROUPOID_CASES = 30
ISO_TOL = 1e-8
COACTION_TOL = 1e-12
INNER_TOL = 1e-9
BASE_SEED = 20260810


def _report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def graph_cases():
    seeds = [BASE_SEED + i for i in range(GRAPH_CASES)]
    return [suite.run_graph_case(s, index=s, tol=ISO_TOL) for s in seeds]


@pytest.fixture(scope="session")
def free_action_cases():
    seeds = [BASE_SEED + 1000 + i for i in range(FREE_ACTION_CASES)]
    return [suite.run_free_action_case(s, index=s, tol=ISO_TOL) for s in seeds]


@pytest.fixture(scope="session")
def groupoid_cases():
    seeds = [BASE_SEED + 2000 + i for i in range(GROUPOID_CASES)]
    return [suite.run_groupoid_case(s, index=s, tol=ISO_TOL, n_random=100) for s in seeds]


def test_criterion_1_eqvt_iso_suite():
    """C*(E x_c G) = C*(E) x_delta G on >= 50 random instances in < 60 s."""
    t0 = time.perf_counter()
    failures = []
    for i in range(GRAPH_CASES):
        rng = np.random.default_rng(BASE_SEED + 10_000 + i)
        E, G, labeling = suite.random_graph_instance(rng)
        cert = duality.certify_eqvt_iso(E, G, labeling, tol=ISO_TOL)
        if not (
            cert.passed
            and cert.lhs_dim == cert.rhs_dim
            and cert.star_report.max_error <= ISO_TOL
            and cert.equivariance_error == 0.0
        ):
            failures.append((i, cert.as_dict()))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        not failures and elapsed < 60.0,
        f"{GRAPH_CASES - len(failures)}/{GRAPH_CASES} instances, "
        f"equivariance exact, {elapsed:.1f}s (< 60 s)",
    )


def test_criterion_2_direct_iso_suite(graph_cases):
    """Theta and Upsilon invert each other at 1e-8; exact dim arithmetic."""
    bad = []
    for case in graph_cases:
        d = case.summary["direct_iso"]
        ok = (
            d["passed"]
            and d["extra"]["composition_ok"]
            and d["extra"]["composition_error"] <= ISO_TOL
            and d["extra"]["dim_arithmetic_ok"]
        )
        if not ok:
            bad.append(case.seed)
    _report(
        2,
        not bad,
        f"{len(graph_cases) - len(bad)}/{len(graph_cases)} instances: "
        "Theta/Upsilon compose to the identity, dims = dim C*(E) |G|^2",
    )


def test_criterion_3_fixture_expectations(e1, z2, e1_z2_labeling):
    """Frozen fixture values for E1/Z2, computed against independent oracles.

    Path-count oracle: E1 has paths {w, f} into its sink, so dim C*(E1) =
    2^2 = 4 and the skew product (two disjoint copies of E1) gives 8.
    Span-closure oracles confirm the crossed-product dimensions 8 and 16.
    """
    fam = graphalg.ck_representation(e1)
    ok = fam.dim == 4
    c1 = duality.certify_eqvt_iso(e1, z2, e1_z2_labeling, tol=ISO_TOL)
    ok &= c1.lhs_dim == c1.rhs_dim == 8
    ok &= matalg.span_closure(fam.s + fam.p).dim == 4
    c2 = duality.certify_direct_iso(e1, z2, e1_z2_labeling, tol=ISO_TOL)
    ok &= c2.lhs_dim == c2.rhs_dim == 16
    ok &= c2.signatures == {"lhs": (4,), "rhs": (4,)}
    _report(3, bool(ok), "dims 4 / 8 / 8 and 16, final signature {4}")


def test_criterion_4_regular_diagram(graph_cases):
    """The duality-composite route equals Theta generator-by-generator, and
    the regular covariant representation preserves dimension."""
    bad = [
        c.seed
        for c in graph_cases
        if not (
            c.summary["diagram"]["passed"]
            and c.summary["diagram"]["extra"]["chase_ok"]
            and c.summary["diagram"]["extra"]["regular_rep_dim_ok"]
        )
    ]
    _report(
        4,
        not bad,
        f"{len(graph_cases) - len(bad)}/{len(graph_cases)} diagram chases commute, "
        "regular representation faithful by dimension",
    )


def test_criterion_5_free_actions(free_action_cases):
    """C*(F) x_beta G = C*(F/G) (x) M_|G| for 20 translation-generated free
    actions, with matching Wedderburn signatures."""
    bad = []
    for case in free_action_cases:
        cert = case.summary["free_action"]
        sig = cert.get("signatures") or {}
        if not (case.passed and sig.get("lhs") == sig.get("rhs")):
            bad.append(case.seed)
    _report(
        5,
        not bad,
        f"{len(free_action_cases) - len(bad)}/{len(free_action_cases)} free actions, "
        "signatures agree",
    )


def test_criterion_6_coaction_and_gauge(graph_cases):
    """Coaction identity and injectivity at 1e-12 on every instance; gauge
    checks pass for z in {1, -1, i, e^(2 pi i/7)}."""
    bad = [
        c.seed
        for c in graph_cases
        if not (c.summary["coaction_ok"] and c.summary["gauge_ok"])
    ]
    _report(
        6,
        not bad,
        f"{len(graph_cases) - len(bad)}/{len(graph_cases)} instances: coaction at "
        f"{COACTION_TOL:g}, gauge samples pass",
    )


def test_criterion_7_groupoid_duality(groupoid_cases):
    """certify_gpd_iso and certify_semi_cross pass at 1e-8 on >= 30 finite
    groupoids with cocycles into Z2/Z3."""
    bad = []
    for case in groupoid_cases:
        ok = (
            case.summary["gpd_iso"]["passed"]
            and case.summary["semi_cross"]["passed"]
        )
        if not ok:
            bad.append(case.seed)
    _report(
        7,
        not bad and len(groupoid_cases) >= 30,
        f"{len(groupoid_cases) - len(bad)}/{len(groupoid_cases)} groupoid instances",
    )


def test_criterion_8_equivalences_and_inner_products(groupoid_cases):
    """Both equivalence bimodules axiom-checked exhaustively; the general
    inner-product formula equals sum_t a_t* b_t on 100 random pairs per
    instance at 1e-9."""
    bad = []
    for case in groupoid_cases:
        eq1 = case.summary["equivalence_semidirect"]
        eq2 = case.summary["equivalence_subgroupoid"]
        ok = all(v for k, v in eq1.items() if k.endswith("_ok"))
        ok &= all(v for k, v in eq2.items() if k.endswith("_ok"))
        ok &= case.summary["inner_product_max_error"] <= INNER_TOL
        ok &= all(v for k, v in case.summary["module_structure"].items() if k.endswith("_ok"))
        if not ok:
            bad.append(case.seed)
    _report(
        8,
        not bad,
        f"{len(groupoid_cases) - len(bad)}/{len(groupoid_cases)} instances: all "
        "bimodule axioms, 100 inner-product pairs each at 1e-9",
    )


def test_criterion_9_expectations(groupoid_cases):
    """P_R faithful on positives (100 random elements, norm > 1e-6); the
    translation norm identity exact; the reduced-semidirect identity
    P_R(E(Phi(b))) = P_{R x| G}(b) exact, decided on delta functions (no
    mismatched entry)."""
    bad = []
    for case in groupoid_cases:
        exp = case.summary["expectations"]
        ok = (
            exp["faithfulness_min_norm"] > 1e-6
            and exp["translation_norm_error"] == 0.0
            and exp["red_semi_cross_error"] == 0.0
        )
        if not ok:
            bad.append(case.seed)
    _report(
        9,
        not bad,
        f"{len(groupoid_cases) - len(bad)}/{len(groupoid_cases)} instances: "
        "expectations faithful, norm identities hold",
    )


def test_criterion_10_full_groupoid_signatures(groupoid_cases):
    """Wedderburn signatures of C*(Q x_c G) x_beta G and C*(Q) (x) M_|G|
    coincide on every groupoid instance."""
    bad = []
    for case in groupoid_cases:
        sig = case.summary["full_gpd"]["signatures"]
        if not (case.summary["full_gpd"]["passed"] and sig["lhs"] == sig["rhs"]):
            bad.append(case.seed)
    _report(
        10,
        not bad,
        f"{len(groupoid_cases) - len(bad)}/{len(groupoid_cases)} signature pairs agree",
    )
