"""Equivalence bimodules and inner products.

Two groupoid equivalences are built and axiom-checked exhaustively:

* the carrier Q x_c G linking the semidirect product (Q x_c G) x| G to Q;
* the carrier Q linking the auxiliary groupoid H = {(x, c(y)) : s(x) = r(y)}
  to the kernel N = c^-1(e).

The second equips C_c(Q) with a C_c(N)-valued inner product; the general
formula collapses to the graded expression sum_t a_t* b_t, and the module
axioms (adjointability, positivity, boundedness) are verified numerically.
"""
import numpy as np

from skewprod import groupoids as gpd
from skewprod import groups

Z2 = groups.cyclic_group(2)
Q = gpd.pair_groupoid(2)
c = gpd.cocycle_from_names(Q, Z2, {"x11": "e", "x22": "e", "x12": "g", "x21": "g"})

# ---------------------------------------------------------------------------
# Both equivalences, every axiom checked over the whole (finite) carrier.
for kind in ("semidirect", "subgroupoid"):
    bim, report = gpd.certify_equivalence(kind, Q, Z2, c)
    print(f"{kind} equivalence:", {c.name: c.passed for c in report.checks})
    if kind == "subgroupoid":
        print("  H unit space size:", report.data["h_units"],
          "(pairs (u, t) with t in c of the arrows into u)")

# ---------------------------------------------------------------------------
# Inner products, each evaluated by the general formula and by the graded
# simplification, which must agree.  <delta_x12, delta_x12> is the unit
# function at the unit 2.
evaluator = gpd.InnerProductEvaluator(Q, c)
a = np.zeros(4); a[Q.arrow_index("x12")] = 1
val, _ = evaluator(a, a)
n_arrows = np.nonzero(c.values == Z2.identity_index)[0]
print("\n<delta_x12, delta_x12> =",
      {Q.arrows[int(n)]: val[i].real for i, n in enumerate(n_arrows) if abs(val[i])})

# Elements of different degrees are orthogonal: the termwise products vanish.
b = np.zeros(4); b[Q.arrow_index("x11")] = 1
val, _ = evaluator(a, b)
print("<degree g, degree e> =", np.max(np.abs(val)))

# The general formula agrees with sum_t a_t* b_t on 100 random pairs,
# evaluated as one stack, and the choice of auxiliary element never matters.
rng = np.random.default_rng(3)
x, y = gpd.random_functions(rng, 100, 4, 4)
_, agreement = evaluator(x, y)
print("worst disagreement over 100 random pairs:", agreement.error)

# Module structure: adjointability, Gram positivity, the operator bound
# <a b, a b> <= ||a||^2 <b, b> in C*(N).
report = gpd.verify_bimodule_module_structure(Q, c, n_random=50, rng=rng)
print("module structure:", {c.name: c.passed for c in report.checks})
print("Gram minimum eigenvalue:", report.data["gram_min_eigenvalue"])
