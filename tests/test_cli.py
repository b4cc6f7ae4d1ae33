import json
import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import symmetric_group_3

import skewprod
from skewprod import cli, crossed, fixture_path, graphalg, graphs, groupoids, groups, matalg, suite


def fx(name: str) -> str:
    return str(fixture_path(name))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_direct_iso_fixture(capsys):
    code, out = run(
        capsys, "verify", "direct-iso", "-g", fx("e1"), "-G", fx("z2"), "--json"
    )
    assert code == 0
    body = json.loads(out)
    assert body["passed"]
    cert = body["certificate"]
    assert cert["lhs"]["dim"] == cert["rhs"]["dim"] == 16
    assert cert["signatures"] == {"lhs": [4], "rhs": [4]}


def test_verify_eqvt_iso_fixture(capsys):
    code, out = run(capsys, "verify", "eqvt-iso", "-g", fx("e1"), "-G", fx("z2"))
    assert code == 0
    assert "passed: True" in out


def test_s3_fixtures_are_non_abelian():
    G = groups.FiniteGroup.from_json(fixture_path("s3").read_text())
    assert G == symmetric_group_3()
    graph, lab = graphs.labeled_graph_from_json(fixture_path("chain-s3").read_text(), G)
    a, b = lab.of(graph.edge_index("e1")), lab.of(graph.edge_index("e2"))
    assert G.mul(a, b) != G.mul(b, a)


@pytest.mark.parametrize("kind", ["eqvt-iso", "direct-iso", "diagram"])
def test_verify_on_the_s3_chain_fixture(capsys, kind):
    code, out = run(capsys, "verify", kind, "-g", fx("chain-s3"), "-G", fx("s3"), "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("kind", ["gpd-iso", "semi-cross", "equivalence", "bimodule"])
def test_verify_on_the_s3_groupoid_fixture(capsys, kind):
    code, out = run(capsys, "verify", kind, "-q", fx("s3-groupoid"), "-G", fx("s3"), "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def _reversed_arrows(Q):
    """Q with its arrows listed in reverse order."""
    p = np.arange(Q.n_arrows)[::-1]
    mult = Q.mult[np.ix_(p, p)]
    return groupoids.FiniteGroupoid(Q.units, [Q.arrows[i] for i in p], Q.r[p], Q.s[p],
                                    np.where(mult >= 0, p[mult], -1), p[Q.inv[p]])


_INNER = groupoids.InnerProductEvaluator.__call__
_SIMPLIFIED = groupoids.InnerProductEvaluator.simplified_formula
_REPRESENT = groupoids.GroupoidAlgebra.represent_rows
_KERNEL = groupoids.kernel_subgroupoid


def _negated_inner(self, a, b, tol):
    values, check = _INNER(self, a, b, tol=tol)
    return -values, check


@pytest.mark.parametrize("target, name, plant, command, failed", [
    # <a, b> negated: the Gram matrices are negative and <ab, ab> exceeds ||a||^2 <b, b>.
    (groupoids.InnerProductEvaluator, "__call__", _negated_inner,
     "bimodule", {"gram_psd_ok", "boundedness_ok"}),
    # sum_t a_t* b_t doubled: only the comparison of the two formulas sees it,
    # and the report renders that check as inner_product_max_error, no flag.
    (groupoids.InnerProductEvaluator, "simplified_formula",
     lambda self, a, b, tol: 2 * _SIMPLIFIED(self, a, b, tol=tol), "bimodule", set()),
    # pi(f) halved: ||pi(a)||^2 <b, b> falls below <ab, ab>.
    (groupoids.GroupoidAlgebra, "represent_rows", lambda self, fs: 0.5 * _REPRESENT(self, fs),
     "bimodule", {"boundedness_ok"}),
    # N's arrows in reverse order: i(delta_n) is the wrong arrow, so P_N != P_Q o i.
    (groupoids, "kernel_subgroupoid", lambda Q, c: _reversed_arrows(_KERNEL(Q, c)),
     "gpd-iso", {"kernel_embedding_ok"}),
], ids=["gram_psd", "formula_agreement", "boundedness", "kernel_embedding"])
def test_planted_defect_fails_the_report_with_exit_1(capsys, monkeypatch, target, name, plant,
                                                     command, failed):
    monkeypatch.setattr(target, name, plant)
    code, out = run(capsys, "verify", command, "-q", fx("pair-groupoid"), "-G", fx("z2"),
                    "--json")
    body = json.loads(out)
    assert code == 1 and body["passed"] is False
    flags = {}
    for part in body.values():
        if isinstance(part, dict):
            flags |= part | part.get("extra", {})
    assert {key for key, value in flags.items() if key.endswith("_ok") and not value} == failed


def _rho_delta_rows(graded):
    """delta(b_i) = b_i (x) rho_deg(b_i): rho in place of lam in every delta row."""
    m = graded.group.order
    rho = groups.regular_rows(graded.group)[1]
    rows = matalg._kron_rows(graded.span.rows, rho, graded.span.ambient_dim, m)
    return rows[np.arange(graded.span.dim) * m + graded.degrees]


def _false_flags(body: dict, prefix: str = "") -> set:
    """The dotted path of every false value nested in a report body."""
    out = set()
    for key, value in body.items():
        if isinstance(value, dict):
            out |= _false_flags(value, f"{prefix}{key}.")
        elif value is False:
            out.add(prefix + key)
    return out


@pytest.mark.parametrize("argv, part, failed", [
    # Case 0 of seed 5 labels an edge by an element t of Z4 with t != t^-1.
    (["suite", "run", "--seed", "5", "--cases", "1", "--kinds", "graph"],
     lambda body: body["cases"][0]["summary"],
     {"coaction_ok", "diagram.passed", "diagram.extra.chase_ok"}),
    # Over S3 rho_t is neither lam_t nor lam_(t^-1).
    (["verify", "gpd-iso", "-q", fx("s3-groupoid"), "-G", fx("s3")],
     lambda body: body["certificate"],
     {"passed", "extra.coaction_ok", "star_map.well_defined", "star_map.multiplicative"}),
], ids=["graph-case", "gpd-iso"])
def test_planted_delta_row_fails_coaction_with_exit_1(capsys, monkeypatch, argv, part, failed):
    code, out = run(capsys, *argv, "--json")
    assert code == 0 and not _false_flags(json.loads(out))
    monkeypatch.setattr(crossed.GradedSpan, "delta_rows", property(_rho_delta_rows))
    code, out = run(capsys, *argv, "--json")
    body = json.loads(out)
    assert code == 1 and body["passed"] is False
    assert _false_flags(part(body)) == failed


def test_graph_skew_trivial_group_isomorphic(capsys, tmp_path, e1):
    # With the trivial group every labeling is constant; drop the labels.
    plain = tmp_path / "plain.json"
    plain.write_text(e1.to_json())
    code, out = run(
        capsys, "graph", "skew", "-g", str(plain), "-G", fx("trivial"), "--json"
    )
    assert code == 0
    body = json.loads(out)
    from skewprod.graphs import DirectedGraph, find_graph_isomorphism

    skew = DirectedGraph.from_json(json.dumps(body["skew_product"]))
    assert find_graph_isomorphism(skew, e1) is not None


def test_graph_quotient_round_trip(capsys, tmp_path):
    code, out = run(
        capsys, "graph", "skew", "-g", fx("e1"), "-G", fx("z2"), "--json"
    )
    skew_file = tmp_path / "skew.json"
    skew_file.write_text(json.dumps(json.loads(out)["skew_product"]))
    code, out = run(
        capsys, "graph", "gross-tucker", "-g", str(skew_file), "-G", fx("z2"), "--json"
    )
    assert code == 0
    body = json.loads(out)
    assert len(body["quotient"]["vertices"]) == 2
    assert body["vertex_map"]


def test_algebra_ck(capsys):
    code, out = run(capsys, "algebra", "ck", "-g", fx("chain2"), "--json")
    assert code == 0
    body = json.loads(out)
    assert body["ambient_dim"] == 3
    assert body["dim"] == body["generated_dim"] == 9
    assert body["signature"] == [3]


def test_gpd_skew_and_semidirect(capsys):
    code, out = run(
        capsys, "gpd", "skew", "-q", fx("pair-groupoid"), "-G", fx("z2"), "--json"
    )
    assert code == 0
    assert len(json.loads(out)["skew_product"]["arrows"]) == 8
    code, out = run(
        capsys, "gpd", "semidirect", "-q", fx("pair-groupoid"), "-G", fx("z2"), "--json"
    )
    assert code == 0
    assert len(json.loads(out)["semidirect"]["arrows"]) == 16


def test_verify_groupoid_family(capsys):
    for sub in ("gpd-iso", "semi-cross", "equivalence"):
        code, out = run(
            capsys, "verify", sub, "-q", fx("pair-groupoid"), "-G", fx("z2")
        )
        assert code == 0, sub


def test_failed_equivalence_axiom_exits_1(capsys, monkeypatch):
    # One defined cell of the left table left undefined: the report shows
    # domains_ok false and fails, and the exit status is 1, not an error's 2.
    verify = groupoids.EquivalenceBimodule.verify

    def planted(bim):
        bim.left_table = bim.left_table.copy()
        bim.left_table[tuple(np.argwhere(bim.left_table >= 0)[0])] = -1
        return verify(bim)

    monkeypatch.setattr(groupoids.EquivalenceBimodule, "verify", planted)
    code, out = run(capsys, "verify", "equivalence", "-q", fx("pair-groupoid"), "-G", fx("z2"),
                    "--kind", "both", "--json")
    body = json.loads(out)
    assert code == 1 and body["passed"] is False
    assert {body["equivalence"][kind]["domains_ok"] for kind in body["equivalence"]} == {False}


def test_verify_bimodule(capsys):
    code, out = run(
        capsys,
        "verify", "bimodule", "-q", fx("pair-groupoid"), "-G", fx("z2"),
        "--cases", "25", "--json",
    )
    assert code == 0
    body = json.loads(out)
    assert body["inner_product_max_error"] <= 1e-9


def test_convert_round_trip_identity(capsys):
    code, out = run(
        capsys, "convert", "-g", fx("e1"), "-G", fx("z2"), "--to", "group-first",
        "--json",
    )
    assert code == 0
    body = json.loads(out)
    vmap = body["vertex_map"]
    # The isomorphism is a bijection on cells; inverting it is the identity.
    assert len(set(map(tuple, (tuple(v) for v in vmap.values())))) == len(vmap)


def test_suite_run_exit_zero(capsys):
    code, out = run(
        capsys, "suite", "run", "--seed", "42", "--cases", "3", "--json"
    )
    assert code == 0
    body = json.loads(out)
    assert body["passed"] and body["n_cases"] == 3


def test_json_reports_are_deterministic(capsys):
    argv = ["verify", "gpd-iso", "-q", fx("pair-groupoid"), "-G", fx("z2"),
            "--seed", "7", "--json"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    b1, b2 = json.loads(out1), json.loads(out2)
    b1.pop("wall_time_s"), b2.pop("wall_time_s")
    assert json.dumps(b1, sort_keys=True) == json.dumps(b2, sort_keys=True)


def test_exit_code_2_on_missing_file(capsys):
    code = cli.main(["verify", "eqvt-iso", "-g", "missing.json", "-G", fx("z2")])
    assert code == 2


def test_exit_code_2_on_bad_input(capsys, tmp_path):
    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps({
        "vertices": ["v"], "edges": [{"id": "f", "src": "v", "rng": "v"}]
    }))
    code = cli.main(["algebra", "ck", "-g", str(bad)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["graph", "skew", "-g", fx("e1")],
    ["verify", "eqvt-iso", "-g", fx("e1")],
    ["gpd", "skew", "-q", fx("pair-groupoid")],
    ["verify", "bimodule", "-q", fx("pair-groupoid")],
], ids=["graph skew", "verify eqvt-iso", "gpd skew", "verify bimodule"])
def test_exit_code_2_on_duplicate_element_names(capsys, tmp_path, argv):
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"elements": ["e", "g", "g"],
                               "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    assert cli.main(argv + ["-G", str(dup)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "duplicate element name 'g'" in err


@pytest.mark.parametrize("argv", [
    ["suite", "run"],
    ["verify", "bimodule", "-q", fx("pair-groupoid"), "-G", fx("z2")],
])
def test_exit_code_2_on_negative_case_count(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--cases", "-1"])
    assert exit_.value.code == 2
    assert "--cases: must be 0 or more, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["suite", "run", "--cases", "1"],
    ["verify", "direct-iso", "-g", fx("e1"), "-G", fx("z2")],
], ids=["suite run", "verify direct-iso"])
def test_exit_code_2_on_negative_seed(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--seed", "-1", "--json"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "--seed: must be 0 or more, got -1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["graph", "free-action"])
def test_suite_run_refuses_a_max_dim_no_graph_case_fits(kind):
    # In a subprocess with a timeout, so that a sampler that never finds an
    # instance fails the test instead of hanging it.
    least = suite.min_graph_dim()
    src = os.path.dirname(os.path.dirname(skewprod.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "skewprod.cli", "suite", "run", "--max-dim", str(least - 1),
         "--cases", "2", "--kinds", kind, "--json"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: max_dim {least - 1} is below {least}, "
                           "the least ambient dimension of a graph instance\n")


@pytest.mark.parametrize("kinds", ["foo", ",", "graph,foo"])
def test_suite_run_refuses_unknown_or_empty_kinds(capsys, kinds):
    assert cli.main(["suite", "run", "--cases", "1", "--kinds", kinds, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --kinds must name one or more of graph, free-action, "
                            f"groupoid, got {kinds!r}\n")


def test_suite_run_draws_groupoid_cases_under_max_dim():
    src = os.path.dirname(os.path.dirname(skewprod.__file__))
    argv = [sys.executable, "-m", "skewprod.cli", "suite", "run", "--cases", "1",
            "--kinds", "groupoid", "--json", "--max-dim"]
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(argv + ["8"], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0
    summary = json.loads(done.stdout)["cases"][0]["summary"]
    assert summary["groupoid"]["arrows"] * summary["group_order"] ** 2 <= 8
    least = suite.MIN_GROUPOID_DIM
    done = subprocess.run(argv + [str(least - 1)], capture_output=True, text=True, timeout=60,
                          env=env)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: max_dim {least - 1} is below {least}, "
                           "the least ambient dimension of a groupoid instance\n")


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ["verify", "eqvt-iso", "-g", fx("e1"), "-G", fx("z2")],
    ["suite", "run", "--cases", "1", "--kinds", "graph"],
], ids=["verify eqvt-iso", "suite run"])
def test_exit_code_2_on_bad_tolerance(capsys, argv, tol):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--tol", tol, "--json"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert f"--tol: must be finite and above 0, got {tol}" in captured.err
    assert captured.out == ""


def test_max_dim_refuses_larger_inputs(capsys):
    # chain2 has 3 paths ending at its sink; with Z3 the crossed product of
    # the skew product acts on 3 * 3**2 = 27 dimensions.
    argv = ["verify", "direct-iso", "-g", fx("chain2"), "-G", fx("z3")]
    assert cli.main(argv + ["--max-dim", "4"]) == 2
    err = capsys.readouterr().err
    assert err == "error: input needs ambient dimension 27, over --max-dim 4\n"
    assert cli.main(argv + ["--max-dim", "27"]) == 0
    code = cli.main(["gpd", "skew", "-q", fx("pair-groupoid"), "-G", fx("z2"), "--max-dim", "15"])
    assert code == 2
    assert "ambient dimension 16" in capsys.readouterr().err


def test_exit_code_2_on_unknown_label(capsys):
    # e1.json labels an edge by 'g', which the trivial group lacks.
    code = cli.main(["graph", "skew", "-g", fx("e1"), "-G", fx("trivial")])
    assert code == 2


@pytest.mark.parametrize("cocycle, message", [
    ({"x11": "e", "x12": "h", "x21": "g", "x22": "e"},
     "label 'h' on arrow 'x12' is not an element of the group"),
    ({"x12": "g", "x21": "g", "x22": "e"}, "arrow 'x11' has no cocycle value"),
], ids=["unknown label", "missing arrow"])
def test_exit_code_2_on_bad_cocycle(capsys, tmp_path, cocycle, message):
    body = json.loads(fixture_path("pair-groupoid").read_text())
    body["cocycle"] = cocycle
    bad = tmp_path / "bad-cocycle.json"
    bad.write_text(json.dumps(body))
    assert cli.main(["gpd", "skew", "-q", str(bad), "-G", fx("z2")]) == 2
    assert capsys.readouterr().err == f"error: bad groupoid file {bad}: {message}\n"


@pytest.mark.parametrize("error", [crossed.ActionInvalid, graphalg.CKRelationError])
def test_exit_code_1_on_failed_construction_check(capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("planted coaction failure")

    monkeypatch.setattr(graphalg, "coaction", broken)
    code = cli.main(["verify", "eqvt-iso", "-g", fx("e1"), "-G", fx("z2")])
    err = capsys.readouterr().err
    assert code == 1
    assert "certification failed: planted coaction failure" in err
    assert "Traceback" not in err


def test_exit_code_1_on_failed_report(capsys):
    # _emit maps a failed report to exit status 1.
    import argparse, time

    args = argparse.Namespace(json=True)
    failed = matalg.Report({"theorem": "x"}, [matalg.Check("x", 1.0, 0.5)])
    assert cli._emit(args, failed, time.perf_counter()) == 1
    capsys.readouterr()
