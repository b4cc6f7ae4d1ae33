"""Randomized certification suites.

Instances are sampled under explicit size budgets (ambient dimension of the
largest constructed algebra, and the dimension of the double crossed product)
so that every certification stays at desk scale.  Sampling is deterministic
per seed, and each case derives its own child seed, so reports are
byte-identical for a fixed suite seed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import duality, graphalg, groupoids
from .crossed import coaction_check
from .graphs import (
    DirectedGraph,
    GraphError,
    GraphHasCycle,
    enumerate_sink_paths,
    skew_product,
    translation_action,
)
from .groups import FiniteGroup, Labeling, cyclic_group, klein_four_group, make_group
from .matalg import Check, Report

GAUGE_SAMPLES = (1.0, -1.0, 1j, np.exp(2j * np.pi / 7))
# The fewest vertices and edges of a random acyclic graph.
MIN_VERTICES, MIN_EDGES = 2, 1
# The least |Q| |G|^2 of a groupoid case: one unit over Z2.
MIN_GROUPOID_DIM = 4


def suite_groups() -> list[FiniteGroup]:
    return [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group()]


def random_acyclic_graph(
    rng: np.random.Generator, max_vertices: int = 8, max_edges: int = 12
) -> DirectedGraph:
    """A random DAG: edges only go from lower to higher vertex index."""
    n_v = int(rng.integers(MIN_VERTICES, max_vertices + 1))
    n_e = int(rng.integers(MIN_EDGES, max_edges + 1))
    vertices = [f"v{i}" for i in range(n_v)]
    edges = []
    for k in range(n_e):
        i = int(rng.integers(0, n_v - 1))
        j = int(rng.integers(i + 1, n_v))
        edges.append((f"e{k}", vertices[i], vertices[j]))
    return DirectedGraph(vertices, edges)


def min_graph_dim(groups: list[FiniteGroup] | None = None) -> int:
    """The least ambient dimension paths(E) |G|^2 of a graph instance.

    In a finite acyclic graph each edge starts a path into a sink and each
    sink is a path of length 0, so E has at least MIN_EDGES + 1 sink paths,
    and exactly that many when its MIN_VERTICES = 2 vertices are joined by
    MIN_EDGES edges.
    """
    return (MIN_EDGES + 1) * min(G.order for G in groups or suite_groups()) ** 2


def random_graph_instance(
    rng: np.random.Generator,
    max_dim: int = 256,
    dim_budget: int = 512,
    groups: list[FiniteGroup] | None = None,
):
    """(graph, group, labeling) with the double-crossed-product ambient under
    ``max_dim`` and its linear dimension under ``dim_budget``.

    C*(E) is not built: its ambient dimension is the number of sink-bound
    paths, and its dimension the sum over sinks w of (paths into w)^2.
    """
    groups = groups or suite_groups()
    if max_dim < min_graph_dim(groups):
        raise GraphError(f"max_dim {max_dim} is below {min_graph_dim(groups)}, "
                         f"the least ambient dimension of a graph instance")
    while True:
        G = groups[int(rng.integers(len(groups)))]
        E = random_acyclic_graph(rng)
        try:
            paths = enumerate_sink_paths(E)
        except GraphHasCycle:  # pragma: no cover - generator never makes cycles
            continue
        if len(paths) * G.order**2 > max_dim:
            continue
        if int(np.sum(np.bincount([p.range for p in paths]) ** 2)) * G.order**2 > dim_budget:
            continue
        labeling = Labeling(E, G, rng.integers(0, G.order, E.n_edges))
        return E, G, labeling


def random_free_action_instance(rng: np.random.Generator, max_dim: int = 256):
    """A free action, generated as the translation action on a random skew
    product (every free action arises this way up to isomorphism), whose
    double crossed product has linear dimension at most 360."""
    E, G, labeling = random_graph_instance(rng, max_dim=max_dim, dim_budget=360)
    F = skew_product(E, G, labeling)
    return F, translation_action(F, G)


def _isotropy_choices() -> list[FiniteGroup | None]:
    return [None, cyclic_group(2), cyclic_group(3)]


def random_groupoid(
    rng: np.random.Generator, max_units: int = 6, max_arrows: int = 24
) -> groupoids.FiniteGroupoid:
    """A random finite groupoid: a disjoint union of transitive components
    with mixed orbit sizes and isotropy groups."""
    while True:
        parts = []
        units = 0
        arrows = 0
        n_parts = int(rng.integers(1, 4))
        for p in range(n_parts):
            orbit = int(rng.integers(1, 4))
            iso = _isotropy_choices()[int(rng.integers(3))]
            part_arrows = orbit * orbit * (iso.order if iso else 1)
            if units + orbit > max_units or arrows + part_arrows > max_arrows:
                continue
            units += orbit
            arrows += part_arrows
            if iso is None:
                parts.append(groupoids.pair_groupoid(orbit) if orbit > 1
                             else groupoids.units_only_groupoid(1))
            else:
                parts.append(groupoids.transitive_groupoid(orbit, iso, tag=f"c{p}"))
        if parts:
            return groupoids.disjoint_union(parts) if len(parts) > 1 else parts[0]


def _group_homomorphisms(H: FiniteGroup, G: FiniteGroup) -> list[np.ndarray]:
    """All homomorphisms H -> G, by exhaustive search (tiny groups only)."""
    from itertools import product

    homs = []
    n = H.order
    for values in product(range(G.order), repeat=n):
        if values[H.identity_index] != G.identity_index:
            continue
        ok = all(
            values[H.mul(a, b)] == G.mul(values[a], values[b])
            for a in range(n)
            for b in range(n)
        )
        if ok:
            homs.append(np.array(values, dtype=np.int64))
    return homs


def random_cocycle(
    rng: np.random.Generator, Q: groupoids.FiniteGroupoid, G: FiniteGroup
) -> groupoids.Cocycle:
    """A random cocycle Q -> G: on each transitive component, a vertex
    potential twisted by a homomorphism of the isotropy group,
    c(x) = phi(r(x)) psi(h(x)) phi(s(x))^-1.

    The base of a component is its least unit; ref[u] is the least arrow from
    the base to u (the unit arrow at the base), and h(x) = ref[r(x)]^-1 x
    ref[s(x)] lies in the isotropy group at the base.  phi is drawn first,
    then psi for each component in the order of the bases.
    """
    phi = rng.integers(0, G.order, Q.n_units)
    base = groupoids._orbit_base(Q)
    units = np.arange(Q.n_units)
    from_base = np.nonzero(Q.s == base[Q.r])[0]
    _, first = np.unique(Q.r[from_base], return_index=True)
    ref = np.where(base == units, Q.unit_arrow, from_base[first])
    h = Q.mult[Q.mult[Q.inv[ref[Q.r]], np.arange(Q.n_arrows)], ref[Q.s]]
    psi = np.empty(Q.n_arrows, dtype=np.int64)
    for b in units[base == units]:
        iso = np.nonzero((Q.r == b) & (Q.s == b))[0]
        homs = _group_homomorphisms(make_group(np.searchsorted(iso, Q.mult[np.ix_(iso, iso)])), G)
        psi[iso] = homs[int(rng.integers(len(homs)))]
    return groupoids.Cocycle(Q, G, G.table[G.table[phi[Q.r], psi[h]], G.inverse[phi[Q.s]]])


@dataclass
class CaseResult:
    """One case; it passes when every check of ``report`` does, and its
    summary is ``report`` rendered."""

    index: int
    kind: str
    seed: int
    wall_time_s: float
    report: Report

    @property
    def passed(self) -> bool:
        return self.report.passed

    @property
    def summary(self) -> dict:
        return self.report.as_dict()

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "seed": self.seed,
            "passed": self.passed,
            "summary": self.summary,
        }


def run_graph_case(seed: int, index: int = 0, tol: float = 1e-8,
                   max_dim: int = 256) -> CaseResult:
    """One graph-suite case: coaction + gauge checks, the equivariant and
    direct isomorphisms, and the diagram chase."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    E, G, labeling = random_graph_instance(rng, max_dim=max_dim)
    parts = duality.DualityParts(E, G, labeling, tol)
    fam = parts.fam
    coaction = coaction_check(parts.coaction, graphalg.generator_degrees(labeling))
    gauge = graphalg.gauge_check(fam, GAUGE_SAMPLES)
    c1 = duality.certify_eqvt_iso(E, G, labeling, tol=tol, parts=parts)
    c2 = duality.certify_direct_iso(E, G, labeling, tol=tol, rng=rng, parts=parts)
    c3 = duality.certify_regular_diagram(E, G, labeling, tol=tol, parts=parts)
    report = Report(
        {
            "graph": {"vertices": E.n_vertices, "edges": E.n_edges},
            "group_order": G.order,
            "dims": {
                "C*(E)": fam.dim,
                "C*(ExG)": c1.lhs_dim,
                "coaction_crossed": c1.rhs_dim,
                "action_crossed": c2.lhs_dim,
            },
        },
        [coaction, Check.holds("gauge", gauge.passed)],
        parts={"eqvt_iso": c1, "direct_iso": c2, "diagram": c3},
    )
    return CaseResult(index, "graph", seed, time.perf_counter() - t0, report)


def run_free_action_case(seed: int, index: int = 0, tol: float = 1e-8,
                         max_dim: int = 256) -> CaseResult:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    F, action = random_free_action_instance(rng, max_dim=max_dim)
    cert = duality.certify_free_action(F, action, tol=tol, rng=rng)
    report = Report({"graph": {"vertices": F.n_vertices, "edges": F.n_edges},
                     "group_order": action.group.order}, parts={"free_action": cert})
    return CaseResult(index, "free-action", seed, time.perf_counter() - t0, report)


def run_groupoid_case(seed: int, index: int = 0, tol: float = 1e-8,
                      n_random: int = 100, max_dim: int = 256) -> CaseResult:
    """One groupoid-suite case: skew/semidirect duality, the full theorem by
    signature comparison, both equivalence bimodules, inner products, and the
    expectation identities.  The groupoid Q and the group G, Z2 or Z3, are
    drawn again while the ambient dimension |Q| |G|^2 is over ``max_dim``."""
    if max_dim < MIN_GROUPOID_DIM:
        raise groupoids.GroupoidError(
            f"max_dim {max_dim} is below {MIN_GROUPOID_DIM}, "
            "the least ambient dimension of a groupoid instance")
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    while True:
        Q = random_groupoid(rng)
        G = cyclic_group(2) if rng.integers(2) == 0 else cyclic_group(3)
        if Q.n_arrows * G.order**2 <= max_dim:
            break
    c = random_cocycle(rng, Q, G)

    cert_iso = groupoids.certify_gpd_iso(Q, G, c, tol=tol)
    skew = groupoids.skew_product_groupoid(Q, G, c)
    trans = groupoids.translation_groupoid_action(skew, G)
    cert_semi = groupoids.certify_semi_cross(skew, G, trans, tol=tol, rng=rng)
    cert_full = groupoids.certify_full_groupoid(Q, G, c, tol=tol, rng=rng)
    _, eq_semi = groupoids.certify_equivalence("semidirect", Q, G, c, rng=rng)
    _, eq_sub = groupoids.certify_equivalence("subgroupoid", Q, G, c, rng=rng)
    expectations = groupoids.expectations_and_norm_identities(
        skew, G, trans, tol=1e-9, n_random=n_random, rng=rng
    )

    a, b = groupoids.random_functions(rng, n_random, Q.n_arrows, Q.n_arrows)
    _, inner = groupoids.InnerProductEvaluator(Q, c)(a, b, tol=1e-9)
    module_rep = groupoids.verify_bimodule_module_structure(
        Q, c, tol=1e-9, n_random=min(n_random, 40), rng=rng
    )
    report = Report(
        {"groupoid": {"units": Q.n_units, "arrows": Q.n_arrows}, "group_order": G.order},
        [inner],
        {"formula_agreement": "inner_product_max_error"},
        parts={"gpd_iso": cert_iso, "semi_cross": cert_semi, "full_gpd": cert_full,
               "equivalence_semidirect": eq_semi, "equivalence_subgroupoid": eq_sub,
               "expectations": expectations, "module_structure": module_rep},
        flags=False,
    )
    return CaseResult(index, "groupoid", seed, time.perf_counter() - t0, report)


RUNNERS = {"graph": run_graph_case, "free-action": run_free_action_case,
           "groupoid": run_groupoid_case}


@dataclass
class SuiteReport:
    seed: int
    tolerance: float
    cases: list[CaseResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "n_cases": len(self.cases),
            "cases": [c.as_dict() for c in self.cases],
        }


def suite_run(
    seed: int = 0,
    cases: int = 20,
    tol: float = 1e-8,
    max_dim: int = 256,
    kinds: tuple[str, ...] = ("graph", "free-action", "groupoid"),
) -> SuiteReport:
    """Run a mixed certification suite, one case after another; case i is of
    kind ``kinds[i % len(kinds)]`` and draws from its own child seed."""
    results = []
    for i in range(cases):
        child = seed * 1_000_003 + i
        results.append(RUNNERS[kinds[i % len(kinds)]](child, index=i, tol=tol, max_dim=max_dim))
    return SuiteReport(seed=seed, tolerance=tol, cases=results)
