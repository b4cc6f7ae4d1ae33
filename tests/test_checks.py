"""The verdict rule: every verdict is a list of ``matalg.Check`` records.

A report passes exactly when all its checks do, its rendered keys are pinned
here, and raising any one check's error past its tolerance (to the smallest
positive float for an exact check) fails the report and turns that check's
rendered flag false."""
import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from skewprod import cli, fixture_path, suite
from skewprod.duality import IsomorphismCertificate
from skewprod.matalg import Check, Report

CERT = {"theorem", "passed", "lhs", "lhs.dim", "lhs.name", "rhs", "rhs.dim", "rhs.name",
        "tolerance"}
STAR_MAP = {"star_map", "star_map.well_defined", "star_map.multiplicative",
            "star_map.star_preserving", "star_map.injective", "star_map.surjective",
            "star_map.max_error"}
SIGNATURES = {"signatures", "signatures.lhs", "signatures.rhs"}
EQUIVALENCE = {"carrier_size", "properness", "moment_maps_surjective_ok", "domains_ok",
               "moment_compatibility_ok", "unit_actions_ok", "associativity_ok",
               "commuting_ok", "freeness_ok", "orbit_bijections_ok", "properness_window_ok"}
MODULE = {"module_action_ok", "module_action_error", "adjointability_ok",
          "adjointability_error", "gram_psd_ok", "gram_min_eigenvalue", "boundedness_ok",
          "boundedness_min_eigenvalue"}
EXTRA = {
    "eqvt-iso": {"ck_family_ok", "ck_error"},
    "direct-iso": {"ck_family_ok", "ck_error", "covariance_ok", "composition_ok",
                   "composition_error", "dim_arithmetic_ok"},
    "diagram": {"chase_ok", "chase_error", "regular_rep_dim_ok"},
    "free-action": {"inner_direct_iso_ok", "quotient_vertices", "quotient_edges"},
    "gpd-iso": {"kernel_embedding_ok", "coaction_ok"},
    "semi-cross": {"random_convolution_ok", "random_convolution_error", "bijection_ok"},
    "full-gpd": {"dim_arithmetic_ok"},
}


def _under(prefix, keys):
    return {prefix} | {f"{prefix}.{k}" for k in keys}


def _cert(prefix, theorem, *blocks):
    """The keys of a certificate rendered at ``prefix``."""
    keys = CERT.union(*blocks) | _under("extra", EXTRA[theorem])
    return _under(prefix, keys)


GRAPH_KEYS = (
    {"graph", "graph.vertices", "graph.edges", "group_order", "dims", "dims.C*(E)",
     "dims.C*(ExG)", "dims.coaction_crossed", "dims.action_crossed", "coaction_ok", "gauge_ok"}
    | _cert("eqvt_iso", "eqvt-iso", STAR_MAP, {"equivariance_error"})
    | _cert("direct_iso", "direct-iso", STAR_MAP, SIGNATURES)
    | _cert("diagram", "diagram")
)
GROUPOID_KEYS = (
    {"groupoid", "groupoid.units", "groupoid.arrows", "group_order", "inner_product_max_error"}
    | _cert("gpd_iso", "gpd-iso", STAR_MAP, {"equivariance_error"})
    | _cert("semi_cross", "semi-cross", STAR_MAP)
    | _cert("full_gpd", "full-gpd", SIGNATURES)
    | _under("equivalence_semidirect", EQUIVALENCE)
    | _under("equivalence_subgroupoid", EQUIVALENCE | {"h_units"})
    | _under("expectations", {"translation_norm_ok", "translation_norm_error", "off_units_ok",
                              "red_semi_cross_ok", "red_semi_cross_error", "faithfulness_ok",
                              "faithfulness_min_norm"})
    | _under("module_structure", MODULE)
)


def _keys(body: dict, prefix: str = "") -> set:
    out = set()
    for key, value in body.items():
        out.add(prefix + key)
        if isinstance(value, dict):
            out |= _keys(value, f"{prefix}{key}.")
    return out


@contextlib.contextmanager
def _set(obj, key, value):
    """Hold ``obj[key]`` (or the attribute ``key`` of ``obj``) at ``value``
    for the block."""
    item = isinstance(obj, (list, dict))
    original = obj[key] if item else getattr(obj, key)
    if item:
        obj[key] = value
    else:
        setattr(obj, key, value)
    try:
        yield
    finally:
        if item:
            obj[key] = original
        else:
            setattr(obj, key, original)


def _raised(check: Check) -> Check:
    return replace(check, error=np.nextafter(0.0, 1.0) if check.exact
                   else np.nextafter(check.tol, np.inf))


def _plants(node, path=()):
    """(a plant failing one check, path of its rendered flag or None) for
    every check of ``node`` and its parts; a certificate's derived checks are
    failed through the fields they are derived from."""
    if isinstance(node, IsomorphismCertificate):
        yield _set(node, "rhs_dim", node.lhs_dim + 1), None
        if node.star_report is not None:
            for i, c in enumerate(node.star_report.checks):
                yield _set(node.star_report.checks, i, _raised(c)), path + ("star_map", c.name)
        if node.equivariance_error is not None:
            yield _set(node, "equivariance_error", np.nextafter(0.0, 1.0)), None
        if node.signatures is not None:
            yield _set(node.signatures, "rhs", None), None
        yield from _plants(node.extra, path + ("extra",))
        return
    for i, c in enumerate(node.checks):
        yield _set(node.checks, i, _raised(c)), path + (f"{c.name}_ok",) if node.flags else None
    for key, part in node.parts.items():
        yield from _plants(part, path + (key,))


def _assert_verdict_rule(report, keys):
    """``report`` passes by all its checks, renders ``keys``, and fails with
    the rendered flag false when any one check is planted to fail."""
    assert report.passed
    assert report.passed == all(c.passed for c in report.every_check())
    assert _keys(report.as_dict()) == keys
    plants = list(_plants(report))
    assert len(report.every_check()) == len(plants)
    flags = set()
    for plant, flag in plants:
        with plant:
            assert not report.passed, flag
            if flag is not None:
                body = report.as_dict()
                for key in flag:
                    body = body[key]
                assert body is False, flag
                flags.add(".".join(flag))
        assert report.passed
    # Every rendered verdict flag belongs to a check.
    assert flags == {k for k in keys if k.endswith("_ok") or (
        k.split(".")[-2:-1] == ["star_map"] and not k.endswith(".max_error"))}


@pytest.mark.parametrize("seed", [1, 2])
def test_graph_case_verdict_rule(seed):
    result = suite.run_graph_case(seed)
    _assert_verdict_rule(result.report, GRAPH_KEYS)
    assert result.passed and result.summary == result.report.as_dict()


@pytest.mark.parametrize("seed", [1, 2])
def test_groupoid_case_verdict_rule(seed):
    result = suite.run_groupoid_case(seed)
    _assert_verdict_rule(result.report, GROUPOID_KEYS)
    inner = result.report.checks[0]
    result.report.checks[0] = _raised(inner)
    assert not result.passed and not result.as_dict()["passed"]
    assert result.summary["inner_product_max_error"] > 1e-9


def _skew_fixture(tmp_path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["graph", "skew", "-g", str(fixture_path("e1")), "-G",
                  str(fixture_path("z2")), "--json"])
    path = tmp_path / "e1-z2-skew.json"
    path.write_text(json.dumps(json.loads(out.getvalue())["skew_product"]))
    return str(path)


def _equivalence(kind, *extra):
    return _under(f"equivalence.{kind}", EQUIVALENCE | {"kind", *extra})


CLI_CASES = {
    "eqvt-iso": ("graph", _cert("certificate", "eqvt-iso", STAR_MAP, {"equivariance_error"})),
    "direct-iso": ("graph", _cert("certificate", "direct-iso", STAR_MAP, SIGNATURES)),
    "diagram": ("graph", _cert("certificate", "diagram")),
    "free-action": ("skew", _cert("certificate", "free-action", STAR_MAP, SIGNATURES)),
    "gpd-iso": ("groupoid", _cert("certificate", "gpd-iso", STAR_MAP, {"equivariance_error"})),
    "semi-cross": ("groupoid", _cert("certificate", "semi-cross", STAR_MAP)),
    "equivalence": ("groupoid", {"equivalence"} | _equivalence("semidirect")
                    | _equivalence("subgroupoid", "h_units")),
    "bimodule": ("groupoid", {"inner_product_max_error", "pairs"}
                 | _under("module_structure", MODULE)),
}


@pytest.mark.parametrize("command", list(CLI_CASES))
def test_cli_verdict_rule(command, monkeypatch, tmp_path):
    kind, keys = CLI_CASES[command]
    inputs = {"graph": ["-g", str(fixture_path("chain2")), "-G", str(fixture_path("z3"))],
              "skew": ["-g", _skew_fixture(tmp_path), "-G", str(fixture_path("z2"))],
              "groupoid": ["-q", str(fixture_path("pair-groupoid")), "-G",
                           str(fixture_path("z2"))]}[kind]
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, report, t0: emitted.append(report)
                        or emit(args, report, t0))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["verify", command, *inputs, "--json"]) == 0
    body = json.loads(out.getvalue())
    assert body["passed"] is True
    report, = emitted
    _assert_verdict_rule(report, keys | {"seed"})
    # The first check, planted to fail, fails the command with exit status 1.
    plant, _ = next(_plants(report))
    with plant, contextlib.redirect_stdout(io.StringIO()) as out:
        assert emit(type("Args", (), {"json": True}), report, 0.0) == 1
    assert json.loads(out.getvalue())["passed"] is False


def test_exact_and_toleranced_checks():
    assert Check("x", 0.0, exact=True).passed
    assert not Check("x", 5e-324, exact=True).passed
    assert Check("x", 1e-9, 1e-9).passed and not Check("x", 1.1e-9, 1e-9).passed
    assert not Check("x", float("nan"), 1.0).passed
    assert Check.holds("x", True).passed and not Check.holds("x", False).passed
    report = Report({"n": 1}, [Check("a", 0.5, 1.0), Check("b", 2.0, 1.0)],
                    errors={"b": "b_err"})
    assert report.as_dict() == {"n": 1, "a_ok": True, "b_ok": False, "b_err": 2.0}
    assert not report.passed
    quiet = Report(checks=[Check("a", 0.5, 1.0)], errors={"a": "a_err"}, flags=False)
    assert quiet.as_dict() == {"a_err": 0.5} and quiet.passed


def test_equivariance_checks_are_exact():
    from skewprod import duality, groupoids, graphs, groups

    G = groups.FiniteGroup.from_json(fixture_path("z3").read_text())
    graph, labeling = graphs.labeled_graph_from_json(fixture_path("chain2").read_text(), G)
    Z2 = groups.FiniteGroup.from_json(fixture_path("z2").read_text())
    Q, names = groupoids.groupoid_from_json(fixture_path("pair-groupoid").read_text())
    for cert in (duality.certify_eqvt_iso(graph, G, labeling),
                 groupoids.certify_gpd_iso(Q, Z2, groupoids.cocycle_from_names(Q, Z2, names))):
        equivariance, = [c for c in cert.every_check() if c.name == "equivariance"]
        assert equivariance.exact and equivariance.error == 0.0
        cert.equivariance_error = np.nextafter(0.0, 1.0)
        assert not cert.passed and not cert.as_dict()["passed"]
