"""The benchmark's workloads: inputs made from a seed, the public call that
is timed, and the predicates every result must meet.

Case sizes vary widely (one graph case takes from under one second to over
seven), so a plain random draw of a dozen cases per run gives throughput
that varies more with the seed than with the code.  Each workload therefore
stratifies: it predicts a case's size from its generated instance, sorts the
sizes into eight fixed bins, and takes cases from the bins in turn, largest
first.  Of the first PICK candidates waiting in a bin it takes the one
closest in size to the bin's middle, so every run has nearly the same size
mix while the instances themselves come from the seed.  The bins and their
middles are the sixteenths of the sizes of 800 reference candidates (those
of seed 0): the even sixteenths are the bin edges, the odd ones the middles.
Plan sizes are multiples of the bin count, so case i of a run, cycling
through its plan, always comes from bin 7 - i % 8.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from skewprod import duality, graphs, suite

ISO_TOL = 1e-8
INNER_TOL = 1e-9
N_RANDOM = 100
# Every Tier-1 seed is below 2**32, so case seeds drawn above it never
# repeat a Tier-1 instance.
SEED_FLOOR = 2**32
N_BINS = 8
PICK = 3


@dataclass
class Outcome:
    """What the benchmark keeps of one case result."""

    problems: list[str]
    record: str  # canonical JSON of the result, compared for determinism
    certificates: dict  # certifier name -> certificate as_dict()


def _case_seeds(seed: int, tag: int):
    rng = np.random.default_rng([seed, tag])
    while True:
        yield SEED_FLOOR + int(rng.integers(2**62))


def _graph_size(E, G, exponents) -> float:
    """dim C*(E)**a * (number of paths into sinks)**b * |G|**c.

    The exponents (a, b, c) are least-squares fits of log case time, measured
    over 56 graph cases and 96 eqvt cases; they leave log residuals of about
    0.09 and 0.16, where the plain product of the three leaves 0.17 and 0.27.
    """
    paths = graphs.enumerate_sink_paths(E)
    per_sink = np.bincount([p.range for p in paths])
    a, b, c = exponents
    return float(np.sum(per_sink**2)) ** a * len(paths) ** b * G.order**c


def _stratified(candidates, size_of, sixteenths, n: int) -> list:
    """``n`` candidates taken from the size bins in turn, largest bin first,
    each the closest in log size to its bin's middle of PICK in the bin."""
    edges, middles = sixteenths[1::2], sixteenths[0::2]
    queues = [[] for _ in middles]
    out = []
    for slot in range(n):
        b = len(queues) - 1 - slot % len(queues)
        while len(queues[b]) < PICK:
            cand = next(candidates)
            size = size_of(cand)
            queues[int(np.searchsorted(edges, size, side="right"))].append((size, cand))
        best = min(range(PICK), key=lambda i: abs(np.log(queues[b][i][0] / middles[b])))
        out.append(queues[b].pop(best)[1])
    return out


class _Stratified:
    """A workload whose plan takes its cases from size bins (see above).

    ``tail`` is the percentile reported as case_s.tail: the highest of
    p99/p95/p90/p80/p75 with ten cases beyond it at the workload's usual
    case count in 30 seconds, else p50.  It is fixed, so the metric does not
    switch percentile when a run's case count drifts across a threshold.
    """

    n_bins = N_BINS

    def plan(self, seed: int, n: int | None = None) -> list:
        return _stratified(self.candidates(seed), self.size, self.sixteenths,
                           n or self.plan_size)


def _failed_ok_flags(prefix: str, d: dict) -> list[str]:
    return [f"{prefix}.{k}" for k, v in d.items() if k.endswith("_ok") and not v]


class GraphSuite(_Stratified):
    name = "graph-suite"
    why = ("suite.run_graph_case on Z2/Z3/Z4/Klein-four instances: coaction, gauge and "
           "three certifiers, where rebuilds and signatures dominate; ~15 cases a run, "
           "so case_s.tail is p50")
    plan_size = 32
    tail = 50
    sixteenths = (15.57, 19.42, 23.44, 28.08, 29.05, 34.98, 38.79, 41, 44.99, 49.46,
                  53.37, 57.71, 63.21, 68.85, 80.06)
    expected = (
        "suite.run_graph_case", "suite.random_graph_instance",
        "duality.certify_eqvt_iso", "duality.certify_direct_iso",
        "duality.certify_regular_diagram", "graphalg.ck_representation",
        "graphalg.coaction", "graphalg.gauge_check", "graphs.skew_product",
        "graphs.enumerate_sink_paths", "crossed.ActionCrossedProduct",
        "crossed.CoactionCrossedProduct", "crossed.ck_action_from_graph_action",
        "matalg.star_map_on_basis", "matalg.wedderburn_signature",
        "matalg.tensor_span", "matalg.AlgebraSpan.coefficients_rows",
    )

    @staticmethod
    def size(case_seed: int) -> float:
        # run_graph_case draws its instance first from default_rng(seed).
        E, G, _ = suite.random_graph_instance(np.random.default_rng(case_seed))
        return _graph_size(E, G, (0.4, 0.6, 1.3))

    @staticmethod
    def candidates(seed: int):
        return _case_seeds(seed, 1)

    def call(self, case_seed: int):
        return suite.run_graph_case(case_seed, tol=ISO_TOL)

    def check(self, result) -> Outcome:
        s = result.summary
        eq, di, dg = s["eqvt_iso"], s["direct_iso"], s["diagram"]
        checks = {
            "passed": result.passed,
            "coaction_ok": s["coaction_ok"],
            "gauge_ok": s["gauge_ok"],
            "eqvt_iso.passed": eq["passed"],
            "eqvt_iso.equivariance_error == 0": eq["equivariance_error"] == 0.0,
            "eqvt_iso.star_map.max_error <= tol": eq["star_map"]["max_error"] <= ISO_TOL,
            "direct_iso.passed": di["passed"],
            "direct_iso.composition_ok": di["extra"]["composition_ok"],
            "direct_iso.composition_error <= tol": di["extra"]["composition_error"] <= ISO_TOL,
            "direct_iso.dim_arithmetic_ok": di["extra"]["dim_arithmetic_ok"],
            # run_graph_case skips signatures above a dimension cap.
            "direct_iso.signatures lhs == rhs": (
                di.get("signatures") is None
                or di["signatures"]["lhs"] == di["signatures"]["rhs"]
            ),
            "diagram.passed": dg["passed"],
            "diagram.chase_ok": dg["extra"]["chase_ok"],
            "diagram.regular_rep_dim_ok": dg["extra"]["regular_rep_dim_ok"],
        }
        problems = [name for name, ok in checks.items() if not ok]
        return Outcome(problems, json.dumps(result.as_dict(), sort_keys=True), {
            "duality.certify_eqvt_iso": s["eqvt_iso"],
            "duality.certify_direct_iso": s["direct_iso"],
            "duality.certify_regular_diagram": s["diagram"],
        })


class GroupoidSuite(_Stratified):
    name = "groupoid-suite"
    why = ("suite.run_groupoid_case with n_random=100: convolution-algebra rebuilds, "
           "expectations, equivalences, inner products; no graph code; ~15 cases a run, "
           "so case_s.tail is p50")
    plan_size = 32
    tail = 50
    sixteenths = (24, 32, 54, 72, 81, 96, 112, 136, 152, 176, 243, 324, 378, 486, 567)
    expected = (
        "suite.run_groupoid_case", "suite.random_groupoid", "suite.random_cocycle",
        "groupoids.certify_gpd_iso", "groupoids.certify_semi_cross",
        "groupoids.certify_full_groupoid", "groupoids.certify_equivalence",
        "groupoids.expectations_and_norm_identities",
        "groupoids.verify_bimodule_module_structure",
        "groupoids.InnerProductEvaluator.__call__", "groupoids.convolution_algebra",
        "groupoids.skew_product_groupoid", "groupoids.semidirect_product",
        "crossed.ActionCrossedProduct", "crossed.CoactionCrossedProduct",
        "matalg.star_map_on_basis", "matalg.wedderburn_signature",
        "matalg.tensor_span", "matalg.AlgebraSpan.coefficients_rows",
    )

    @staticmethod
    def size(case_seed: int) -> int:
        # run_groupoid_case draws the groupoid, then Z2 or Z3, from default_rng(seed).
        rng = np.random.default_rng(case_seed)
        arrows = suite.random_groupoid(rng).n_arrows
        order = 2 if rng.integers(2) == 0 else 3
        return arrows * order**3

    @staticmethod
    def candidates(seed: int):
        return _case_seeds(seed, 2)

    def call(self, case_seed: int):
        return suite.run_groupoid_case(case_seed, tol=ISO_TOL, n_random=N_RANDOM)

    def check(self, result) -> Outcome:
        s = result.summary
        exp = s["expectations"]
        checks = {
            "passed": result.passed,
            "gpd_iso.passed": s["gpd_iso"]["passed"],
            "gpd_iso.equivariance_error == 0": s["gpd_iso"]["equivariance_error"] == 0.0,
            "semi_cross.passed": s["semi_cross"]["passed"],
            "full_gpd.passed": s["full_gpd"]["passed"],
            "full_gpd.signatures lhs == rhs": (
                s["full_gpd"]["signatures"]["lhs"] == s["full_gpd"]["signatures"]["rhs"]
            ),
            "inner_product_max_error <= 1e-9": s["inner_product_max_error"] <= INNER_TOL,
            "expectations.faithfulness_min_norm > 1e-6": exp["faithfulness_min_norm"] > 1e-6,
            "expectations.translation_norm_error == 0": exp["translation_norm_error"] == 0.0,
            "expectations.red_semi_cross_error <= 1e-9": exp["red_semi_cross_error"] <= INNER_TOL,
        }
        problems = [name for name, ok in checks.items() if not ok]
        for key in ("equivalence_semidirect", "equivalence_subgroupoid",
                    "expectations", "module_structure"):
            problems += _failed_ok_flags(key, s[key])
        return Outcome(problems, json.dumps(result.as_dict(), sort_keys=True), {
            "groupoids.certify_gpd_iso": s["gpd_iso"],
            "groupoids.certify_semi_cross": s["semi_cross"],
            "groupoids.certify_full_groupoid": s["full_gpd"],
        })


class EqvtSingle(_Stratified):
    name = "eqvt-single"
    why = ("only duality.certify_eqvt_iso, on instances made in set-up: no signatures and "
           "nothing shared between certifiers, so that work should not move it; ~75 cases "
           "a run, so case_s.tail is p80")
    plan_size = 96
    tail = 80
    sixteenths = (13.75, 18.87, 23.88, 26.79, 30.87, 34.14, 37.29, 40.74, 45.75, 49.48,
                  51.7, 57.88, 62.01, 67.78, 76.79)
    expected = (
        "duality.certify_eqvt_iso", "graphalg.ck_representation", "graphalg.coaction",
        "graphs.skew_product", "graphs.enumerate_sink_paths",
        "crossed.CoactionCrossedProduct", "matalg.star_map_on_basis",
        "matalg.AlgebraSpan.coefficients_rows",
    )

    @staticmethod
    def size(instance) -> float:
        E, G, _ = instance
        return _graph_size(E, G, (0.4, 0.7, 1.1))

    @staticmethod
    def candidates(seed: int):
        return (suite.random_graph_instance(np.random.default_rng(s))
                for s in _case_seeds(seed, 3))

    def call(self, instance):
        E, G, labeling = instance
        return duality.certify_eqvt_iso(E, G, labeling, tol=ISO_TOL)

    def check(self, cert) -> Outcome:
        checks = {
            "passed": cert.passed,
            "lhs_dim == rhs_dim": cert.lhs_dim == cert.rhs_dim,
            "star_map.max_error <= tol": cert.star_report.max_error <= ISO_TOL,
            "equivariance_error == 0": cert.equivariance_error == 0.0,
        }
        d = cert.as_dict()
        problems = [name for name, ok in checks.items() if not ok]
        return Outcome(problems, json.dumps(d, sort_keys=True),
                       {"duality.certify_eqvt_iso": d})


WORKLOADS = {w.name: w for w in (GraphSuite(), GroupoidSuite(), EqvtSingle())}

