"""Defects planted in the library's source, each run on a fresh module.

A mutant is (module, exact source snippet, replacement): the edited source of
the module is compiled and executed on a new module object of the same
package, so the library itself is untouched.  ROADMAP item 1's two defects of
Upsilon in ``duality.certify_direct_iso`` are each caught on one Z3 draw and
one S3 draw: ``injective`` and ``surjective`` of the exact star map fail.
A group in which every element is its own inverse (Z2, Klein) cannot see
either defect.  The commutator Gram matrix of ``matalg.wedderburn_signature``
with its pair cross term's sign flipped changes the signature, or finds no
consistent centre, on both sides of direct-iso on the same two draws.  Theta's
image t_(f,r) of one skew edge, zeroed in ``duality._theta_generator_images``,
fails ``ck_family`` of ``certify_eqvt_iso`` with error 1.0, that of a zero
generator, on both draws."""
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from oracles import symmetric_group_3

from skewprod import duality, groups, matalg, suite

UPSILON_MUTANTS = {
    # t_f = (sum_r pi~(s_(f,r))) w_(c(f)), without the inverse.
    "t_f without the inverse": (
        "sw[inv[labeling.by_edge] * n_e", "sw[labeling.by_edge * n_e"),
    # The basis post-factor u_(b^-1 a) in place of u_(a^-1 b).
    "post-factor u_(b^-1 a)": (
        "post=yu[G.table[inv[t], r] * m + t]", "post=yu[G.table[inv[r], t] * m + t]"),
}

# The cross term +x conj(y) of a commutator column holding x of b_i t and y of t b_j.
GRAM_MUTANT = ("cross = -(x[a] * y[b].conj())", "cross = x[a] * y[b].conj()")

# The image of the first skew edge times 0, every other image times 1.
_EDGE_IMAGES = "edges[(f * m + r) * m + labeling.by_edge[f]]"
DROPPED_EDGE_IMAGE_MUTANT = (
    _EDGE_IMAGES, f"sp.diags(np.arange(n_e * m) > 0, dtype=float) @ {_EDGE_IMAGES}")


def mutant(module: types.ModuleType, snippet: str, replacement: str, monkeypatch):
    """``module`` with its one occurrence of ``snippet`` replaced, executed as
    a new module of its package, registered in ``sys.modules`` for the test."""
    source = Path(module.__file__).read_text()
    assert source.count(snippet) == 1, snippet
    name = f"{module.__name__}_mutant"
    fresh = types.ModuleType(name)
    fresh.__package__, fresh.__file__ = module.__package__, module.__file__
    monkeypatch.setitem(sys.modules, name, fresh)
    exec(compile(source.replace(snippet, replacement), module.__file__, "exec"), fresh.__dict__)
    return fresh


def _draw(G: groups.FiniteGroup, seed: int):
    """A random graph instance over G with some edge label not its own inverse."""
    E, G, lab = suite.random_graph_instance(np.random.default_rng(seed), groups=[G])
    assert np.any(G.inverse[lab.by_edge] != lab.by_edge)
    return E, G, lab


DRAWS = {"Z3": _draw(groups.cyclic_group(3), 3), "S3": _draw(symmetric_group_3(), 3)}


@pytest.mark.parametrize("group", sorted(DRAWS))
@pytest.mark.parametrize("defect", sorted(UPSILON_MUTANTS))
def test_upsilon_mutant_fails_bijectivity(defect, group, monkeypatch):
    E, G, lab = DRAWS[group]
    assert duality.certify_direct_iso(E, G, lab, compute_signatures=False).passed
    planted = mutant(duality, *UPSILON_MUTANTS[defect], monkeypatch)
    cert = planted.certify_direct_iso(E, G, lab, compute_signatures=False)
    verdicts = {c.name: c.passed for c in cert.star_report.checks}
    assert not verdicts["injective"] and not verdicts["surjective"]
    assert verdicts["well_defined"] and verdicts["multiplicative"]


def _signature(module, span):
    """The signature by ``module``'s engine, or None when it raises."""
    try:
        return module.wedderburn_signature(span, rng=np.random.default_rng(0))
    except module.NotSemisimple:
        return None


@pytest.mark.parametrize("group", sorted(DRAWS))
def test_gram_cross_term_mutant_changes_the_signatures(group, monkeypatch):
    parts = duality.DualityParts(*DRAWS[group])
    sides = (parts.acp.span, parts.target)
    planted = mutant(matalg, *GRAM_MUTANT, monkeypatch)
    assert all(planted._pair_gram(span) is not None for span in sides)
    for span in sides:
        signature = _signature(matalg, span)
        assert signature is not None and _signature(planted, span) != signature


@pytest.mark.parametrize("group", sorted(DRAWS))
def test_dropped_edge_image_fails_the_ck_family(group, monkeypatch):
    E, G, lab = DRAWS[group]
    assert duality.certify_eqvt_iso(E, G, lab).passed
    planted = mutant(duality, *DROPPED_EDGE_IMAGE_MUTANT, monkeypatch)
    assert planted.DualityParts(E, G, lab).theta_gen_rows[0].nnz == 0
    extra = planted.certify_eqvt_iso(E, G, lab).as_dict()["extra"]
    assert extra == {"ck_family_ok": False, "ck_error": 1.0}
