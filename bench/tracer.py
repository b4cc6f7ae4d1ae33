"""Per-layer tracing for the benchmark, done from outside the package.

The tracer wraps public callables of ``skewprod`` in the benchmark's own
process; nothing under ``src/`` is edited.  A module-level function is
usually bound in more than one module (``from .graphalg import
ck_representation`` in ``duality`` binds it again), so every attribute of
every ``skewprod`` module that is the original function is replaced, and the
originals are put back by :meth:`Tracer.uninstall`.  Methods and class
constructors are patched once, on the class, which every binding shares.

Per wrapped callable the tracer keeps the call count, inclusive time and
self time.  Self time is the call's duration minus the time of the wrapped
calls nested in it; inclusive time counts only the outermost active call of
a callable, so recursion is not counted twice.  It also counts the CSR
matrices scipy constructs, and for three builders the builds whose inputs
equal an earlier build's inputs in the same case (``begin_case`` starts a
case).  Cases run in the main thread, one at a time: the tracer is not
thread-safe.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Wrapped callables, named "<module>.<attribute path>".  A class name means
# its construction (the class's ``__init__``).
TARGETS = (
    "suite.run_graph_case",
    "suite.run_groupoid_case",
    "suite.random_graph_instance",
    "suite.random_groupoid",
    "suite.random_cocycle",
    "duality.certify_eqvt_iso",
    "duality.certify_direct_iso",
    "duality.certify_regular_diagram",
    "groupoids.certify_gpd_iso",
    "groupoids.certify_semi_cross",
    "groupoids.certify_full_groupoid",
    "groupoids.certify_equivalence",
    "groupoids.expectations_and_norm_identities",
    "groupoids.verify_bimodule_module_structure",
    "groupoids.InnerProductEvaluator.__call__",
    "groupoids.convolution_algebra",
    "groupoids.skew_product_groupoid",
    "groupoids.semidirect_product",
    "graphalg.ck_representation",
    "graphalg.coaction",
    "graphalg.gauge_check",
    "graphs.skew_product",
    "graphs.enumerate_sink_paths",
    "crossed.ActionCrossedProduct",
    "crossed.CoactionCrossedProduct",
    "crossed.ck_action_from_graph_action",
    "matalg.star_map_on_basis",
    "matalg.wedderburn_signature",
    "matalg.span_closure",
    "matalg.tensor_span",
    "matalg.AlgebraSpan.coefficients_rows",
)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif sp.issparse(part):  # CSR here; tocsr() returns it without a copy
            m = part.tocsr()
            h.update(repr(m.shape).encode())
            for arr in (m.indptr, m.indices, m.data):
                h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _graph_key(args) -> str:
    return args["graph"].to_json()


def _groupoid_key(args) -> str:
    return args["Q"].to_json()


def _action_crossed_key(args) -> str:
    base, action = args["base"], args["action"]
    return _digest(base.ambient_dim, base.rows, args["group"].table,
                   *action.coeff_mats, args.get("tol"))


# Builders whose repeated inputs are counted: metric name, the constructor
# that does the build, and the key that identifies equal inputs.
# ``convolution_algebra`` caches its algebra on the groupoid instance, so a
# build there is a ``GroupoidAlgebra`` construction.
DUP_BUILDERS = (
    ("graphalg.ck_representation", "graphalg.CKFamily", _graph_key),
    ("groupoids.convolution_algebra", "groupoids.GroupoidAlgebra", _groupoid_key),
    ("crossed.ActionCrossedProduct", "crossed.ActionCrossedProduct", _action_crossed_key),
)


@dataclass
class CallStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


def _resolve(package: str, dotted: str):
    """(owner, attribute, original) for a target; a class means its __init__."""
    module_name, *path = dotted.split(".")
    owner = sys.modules[f"{package}.{module_name}"]
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    attr = path[-1]
    value = getattr(owner, attr)
    if inspect.isclass(value):
        return value, "__init__", value.__init__
    return owner, attr, value


class Tracer:
    """Wraps the :data:`TARGETS` of an imported ``skewprod`` while installed."""

    def __init__(self, package: str = "skewprod", targets=TARGETS,
                 dup_builders=DUP_BUILDERS, clock=time.perf_counter):
        self.package = package
        self.targets = tuple(targets)
        self.dup_builders = tuple(dup_builders)
        self.clock = clock
        self.stats = {name: CallStats() for name in self.targets}
        self.top_s = 0.0  # inclusive time of calls made with no wrapped caller
        self.csr_new = 0
        self.builds = {name: 0 for name, _, _ in self.dup_builders}
        self.dups = {name: 0 for name, _, _ in self.dup_builders}
        self._seen = {name: set() for name, _, _ in self.dup_builders}
        self._stack: list[float] = []  # per open call: time of nested wrapped calls
        self._active = {name: 0 for name in self.targets}
        self._patches: list[tuple] = []

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for name in self.targets:
            owner, attr, original = _resolve(self.package, name)
            wrapper = self._timed(name, original)
            if inspect.ismodule(owner):
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)
            else:
                self._set(owner, attr, wrapper)
        for name, builder, key_fn in self.dup_builders:
            owner, attr, original = _resolve(self.package, builder)
            self._set(owner, attr, self._dup_counting(name, original, key_fn))
        self._set(sp.csr_matrix, "__init__", self._csr_counting(sp.csr_matrix.__init__))

    def uninstall(self):
        while self._patches:
            owner, attr, had_own, value = self._patches.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def begin_case(self):
        """Start a new case: repeated builds are counted within one case."""
        for seen in self._seen.values():
            seen.clear()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        stats, stack, active, clock = self.stats[name], self._stack, self._active, self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = active[name] == 0
            active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                active[name] -= 1
                stats.calls += 1
                stats.self_s += dt - nested
                if outermost:
                    stats.incl_s += dt
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_s += dt

        return traced

    def _dup_counting(self, name, init, key_fn):
        signature = inspect.signature(init)
        seen, tracer = self._seen[name], self

        @functools.wraps(init)
        def counting_init(*args, **kwargs):
            key = key_fn(signature.bind(*args, **kwargs).arguments)
            tracer.builds[name] += 1
            if key in seen:
                tracer.dups[name] += 1
            seen.add(key)
            return init(*args, **kwargs)

        return counting_init

    def _csr_counting(self, init):
        tracer = self

        @functools.wraps(init)
        def counting_init(*args, **kwargs):
            tracer.csr_new += 1
            return init(*args, **kwargs)

        return counting_init

    # -- results ------------------------------------------------------------

    def dup_frac(self, name: str) -> float:
        return self.dups[name] / self.builds[name] if self.builds[name] else 0.0
