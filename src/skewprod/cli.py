"""Command-line front door: load graphs/groups/groupoids from JSON, run the
constructions and certifications, and emit reports.

Exit codes: 0 when every check passes, 1 on a certification failure, 2 on an
input or parse error or an input over --max-dim.  With --json the report body
is deterministic for a fixed seed and inputs (the wall_time_s field is
excluded from that guarantee).
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import crossed, duality, graphalg, graphs, groupoids, groups, matalg, suite
from .matalg import Check, Report

DEFAULT_TOL = 1e-9
DEFAULT_MAX_DIM = 256


class InputError(Exception):
    pass


def _load(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err


def _load_group(path: str) -> groups.FiniteGroup:
    try:
        return groups.FiniteGroup.from_json(_load(path))
    except (KeyError, ValueError) as err:
        raise InputError(f"bad group file {path}: {err}") from err


def _load_graph(path: str, G: groups.FiniteGroup | None):
    text = _load(path)
    try:
        if G is None:
            return graphs.DirectedGraph.from_json(text), None
        return graphs.labeled_graph_from_json(text, G)
    except (KeyError, ValueError) as err:
        raise InputError(f"bad graph file {path}: {err}") from err


def _load_groupoid(path: str, G: groups.FiniteGroup | None):
    text = _load(path)
    try:
        Q, cocycle_map = groupoids.groupoid_from_json(text)
        c = None
        if G is not None:
            if cocycle_map is None:
                raise InputError(f"groupoid file {path} carries no cocycle")
            c = groupoids.cocycle_from_names(Q, G, cocycle_map)
        return Q, c
    except (KeyError, ValueError) as err:
        raise InputError(f"bad groupoid file {path}: {err}") from err


def _load_inputs(args):
    """Load the group, graph and groupoid files a command names, and refuse
    the input if the largest matrix a command builds from it is over --max-dim.

    That is the crossed product of the skew product by G: ambient dimension
    paths(E) |G|^2 for a graph (the number of paths ending at a sink), and
    arrows(Q) |G|^2 for a groupoid.  A graph with a cycle has no finite path
    space; the commands that build its algebra refuse it on their own.
    """
    G = _load_group(args.group) if getattr(args, "group", None) else None
    graph = labeling = Q = c = None
    order = G.order if G is not None else 1
    dim = 0
    if getattr(args, "graph", None):
        graph, labeling = _load_graph(args.graph, G)
        if graph.find_cycle() is None:
            dim = graphs.count_sink_paths(graph) * order**2
    if getattr(args, "groupoid", None):
        Q, c = _load_groupoid(args.groupoid, G)
        dim = Q.n_arrows * order**2
    if dim > args.max_dim:
        raise InputError(f"input needs ambient dimension {dim}, over --max-dim {args.max_dim}")
    return G, graph, labeling, Q, c


def _emit(args, report, t0: float) -> int:
    """Print ``report`` (a :class:`matalg.Report` or a suite report) with its
    verdict, which is whether all its checks pass, and exit on that."""
    body = report.as_dict()
    body["passed"] = report.passed
    body["wall_time_s"] = round(time.perf_counter() - t0, 6)
    if args.json:
        print(json.dumps(body, indent=2, sort_keys=True, default=_json_default))
    else:
        _human_summary(body)
    return 0 if report.passed else 1


def _json_default(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, tuple):
        return list(x)
    raise TypeError(f"cannot serialize {type(x)}")


def _human_summary(report: dict, indent: str = ""):
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _human_summary(value, indent + "  ")
        else:
            print(f"{indent}{key}: {value}")


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (np.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
    return tol


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    common.add_argument("--seed", type=_count, default=0)
    common.add_argument("--cases", type=_count, default=20)
    common.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="skewprod",
        description="Verification workbench for skew-product graph and "
        "groupoid C*-algebras at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph_p = sub.add_parser("graph", help="graph constructions")
    graph_sub = graph_p.add_subparsers(dest="subcommand", required=True)
    for name in ("skew", "quotient", "gross-tucker"):
        p = graph_sub.add_parser(name, parents=[common])
        p.add_argument("-g", "--graph", required=True)
        p.add_argument("-G", "--group", required=True)

    algebra_p = sub.add_parser("algebra", help="graph algebra constructions")
    algebra_sub = algebra_p.add_subparsers(dest="subcommand", required=True)
    ck_p = algebra_sub.add_parser("ck", parents=[common])
    ck_p.add_argument("-g", "--graph", required=True)

    gpd_p = sub.add_parser("gpd", help="groupoid constructions")
    gpd_sub = gpd_p.add_subparsers(dest="subcommand", required=True)
    for name in ("skew", "semidirect"):
        p = gpd_sub.add_parser(name, parents=[common])
        p.add_argument("-q", "--groupoid", required=True)
        p.add_argument("-G", "--group", required=True)

    verify_p = sub.add_parser("verify", help="certify an isomorphism or bimodule")
    verify_sub = verify_p.add_subparsers(dest="subcommand", required=True)
    for name in ("eqvt-iso", "direct-iso", "free-action", "diagram"):
        p = verify_sub.add_parser(name, parents=[common])
        p.add_argument("-g", "--graph", required=True)
        p.add_argument("-G", "--group", required=True)
    for name in ("gpd-iso", "semi-cross", "equivalence", "bimodule"):
        p = verify_sub.add_parser(name, parents=[common])
        p.add_argument("-q", "--groupoid", required=True)
        p.add_argument("-G", "--group", required=True)
        if name == "equivalence":
            p.add_argument(
                "--kind", choices=("semidirect", "subgroupoid", "both"), default="both"
            )

    suite_p = sub.add_parser("suite", help="randomized certification suites")
    suite_sub = suite_p.add_subparsers(dest="subcommand", required=True)
    run_p = suite_sub.add_parser("run", parents=[common])
    run_p.add_argument(
        "--kinds",
        default="graph,free-action,groupoid",
        help="comma-separated case kinds",
    )

    convert_p = sub.add_parser(
        "convert",
        parents=[common],
        help="translate a labeled graph into another skew-product convention",
    )
    convert_p.add_argument("-g", "--graph", required=True)
    convert_p.add_argument("-G", "--group", required=True)
    convert_p.add_argument(
        "--to", choices=("group-first", "range-twisted"), default="range-twisted"
    )

    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        return _dispatch(args, t0)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (
        graphs.GraphError,
        groups.GroupError,
        groupoids.GroupoidError,
        matalg.DimensionMismatch,
        matalg.NotInSpan,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (
        duality.CertificationFailed,
        crossed.ActionInvalid,
        graphalg.CKRelationError,
    ) as err:
        print(f"certification failed: {err}", file=sys.stderr)
        return 1


def _graph_to_obj(g: graphs.DirectedGraph) -> dict:
    return json.loads(g.to_json())


def _dispatch(args, t0) -> int:
    G, graph, labeling, Q, c = _load_inputs(args)
    if args.command == "graph":
        if args.subcommand == "skew":
            skew = graphs.skew_product(graph, G, labeling)
            return _emit(args, Report({"skew_product": _graph_to_obj(skew)}), t0)
        # quotient and gross-tucker act on a skew-product-shaped graph via
        # the right-translation action.
        action = graphs.translation_action(graph, G)
        quotient, qlab, iso = graphs.quotient_and_gross_tucker(graph, action)
        report = {
            "quotient": _graph_to_obj(quotient),
            "labels": {
                str(e.id): G.name(qlab.of(i)) for i, e in enumerate(quotient.edges)
            },
        }
        if args.subcommand == "gross-tucker":
            report["vertex_map"] = {str(k): list(v) for k, v in iso.vertex_map.items()}
            report["edge_map"] = {str(k): list(v) for k, v in iso.edge_map.items()}
        return _emit(args, Report(report), t0)

    if args.command == "algebra" and args.subcommand == "ck":
        fam = graphalg.ck_representation(graph)
        closure = matalg.span_closure(list(fam.s) + list(fam.p))
        blocks = fam.sink_block_sizes()
        report = {
            "ambient_dim": fam.ambient_dim,
            "dim": fam.dim,
            "generated_dim": closure.dim,
            "sink_blocks": {str(graph.vertices[w]): n for w, n in blocks.items()},
            "signature": list(matalg.wedderburn_signature(fam.span)),
        }
        generated = Check("generated_dim", float(abs(closure.dim - fam.dim)), exact=True)
        return _emit(args, Report(report, [generated], flags=False), t0)

    if args.command == "gpd":
        skew = groupoids.skew_product_groupoid(Q, G, c)
        if args.subcommand == "skew":
            return _emit(args, Report({"skew_product": json.loads(skew.to_json())}), t0)
        trans = groupoids.translation_groupoid_action(skew, G)
        semi = groupoids.semidirect_product(skew, G, trans)
        return _emit(args, Report({"semidirect": json.loads(semi.to_json())}), t0)

    if args.command == "verify":
        return _dispatch_verify(args, t0, G, graph, labeling, Q, c)

    if args.command == "suite" and args.subcommand == "run":
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
        if not kinds or not set(kinds) <= suite.RUNNERS.keys():
            raise InputError(f"--kinds must name one or more of {', '.join(suite.RUNNERS)}, "
                             f"got {args.kinds!r}")
        report = suite.suite_run(
            seed=args.seed,
            cases=args.cases,
            tol=max(args.tol, 1e-9),
            max_dim=args.max_dim,
            kinds=kinds,
        )
        if not args.json:
            lines = [
                f"case {c.index} [{c.kind}] seed={c.seed} "
                f"{'pass' if c.passed else 'FAIL'} ({c.wall_time_s:.2f}s)"
                for c in report.cases
            ]
            print("\n".join(lines))
            print(f"{sum(c.passed for c in report.cases)}/{len(report.cases)} pass")
            return 0 if report.passed else 1
        return _emit(args, report, t0)

    if args.command == "convert":
        other, iso = graphs.convention_iso(graph, G, labeling, which=args.to)
        report = {
            "convention": args.to,
            "graph": _graph_to_obj(other),
            "vertex_map": {str(k): list(v) for k, v in iso.vertex_map.items()},
            "edge_map": {str(k): list(v) for k, v in iso.edge_map.items()},
        }
        return _emit(args, Report(report), t0)

    raise InputError(f"unknown command {args.command}")


def _dispatch_verify(args, t0, G, graph, labeling, Q, c) -> int:
    tol = args.tol
    if args.subcommand in ("eqvt-iso", "direct-iso", "free-action", "diagram"):
        if args.subcommand == "eqvt-iso":
            cert = duality.certify_eqvt_iso(graph, G, labeling, tol=tol)
        elif args.subcommand == "direct-iso":
            cert = duality.certify_direct_iso(
                graph, G, labeling, tol=tol, rng=np.random.default_rng(args.seed)
            )
        elif args.subcommand == "diagram":
            cert = duality.certify_regular_diagram(graph, G, labeling, tol=tol)
        else:
            action = graphs.translation_action(graph, G)
            cert = duality.certify_free_action(
                graph, action, tol=tol, rng=np.random.default_rng(args.seed)
            )
        return _emit(args, Report({"seed": args.seed}, parts={"certificate": cert}), t0)

    rng = np.random.default_rng(args.seed)
    if args.subcommand == "gpd-iso":
        cert = groupoids.certify_gpd_iso(Q, G, c, tol=tol)
        return _emit(args, Report({"seed": args.seed}, parts={"certificate": cert}), t0)
    if args.subcommand == "semi-cross":
        skew = groupoids.skew_product_groupoid(Q, G, c)
        trans = groupoids.translation_groupoid_action(skew, G)
        cert = groupoids.certify_semi_cross(skew, G, trans, tol=tol, rng=rng)
        return _emit(args, Report({"seed": args.seed}, parts={"certificate": cert}), t0)
    if args.subcommand == "equivalence":
        kinds = ("semidirect", "subgroupoid") if args.kind == "both" else (args.kind,)
        report = {}
        for kind in kinds:
            _, report[kind] = groupoids.certify_equivalence(kind, Q, G, c, rng=rng)
            report[kind].data["kind"] = kind
        return _emit(args, Report({"seed": args.seed},
                                  parts={"equivalence": Report(parts=report)}), t0)
    if args.subcommand == "bimodule":
        a, b = groupoids.random_functions(rng, args.cases, Q.n_arrows, Q.n_arrows)
        _, inner = groupoids.InnerProductEvaluator(Q, c)(a, b, tol=max(tol, 1e-9))
        module_rep = groupoids.verify_bimodule_module_structure(
            Q, c, tol=max(tol, 1e-9), n_random=args.cases, rng=rng
        )
        report = Report({"seed": args.seed, "pairs": args.cases}, [inner],
                        {"formula_agreement": "inner_product_max_error"},
                        parts={"module_structure": module_rep}, flags=False)
        return _emit(args, report, t0)
    raise InputError(f"unknown verify subcommand {args.subcommand}")


if __name__ == "__main__":
    sys.exit(main())
