"""Finite groupoids: convolution algebras, skew products, and duality.

The convolution algebra of a finite groupoid is represented faithfully on its
arrow space; a group-valued cocycle grades it and produces a coaction.  The
same two crossed-product isomorphisms as in the graph case hold:

    C*(Q) x_delta G  =  C*(Q x_c G)
    C*(R x| G)  =  C*(R) x_beta G

and composing them recovers  C*(Q x_c G) x_beta G = C*(Q) (x) M_|G|,
certified here by Wedderburn-signature comparison.
"""
import numpy as np

from skewprod import groupoids as gpd
from skewprod import groups, matalg

Z2 = groups.cyclic_group(2)
Z3 = groups.cyclic_group(3)

# ---------------------------------------------------------------------------
# The pair groupoid on two units: its convolution algebra is M_2.
Q = gpd.pair_groupoid(2)
alg = gpd.convolution_algebra(Q)
print("pair groupoid:", Q)
print("convolution algebra dimension:", alg.dim,
      "signature:", matalg.wedderburn_signature(alg.span))

f = np.zeros(4); f[Q.arrow_index("x12")] = 1
g = np.zeros(4); g[Q.arrow_index("x21")] = 1
h = alg.convolve(f, g)
print("delta_x12 * delta_x21 =",
      {Q.arrows[i]: h[i].real for i in np.nonzero(h)[0]})

# Isotropy shows up as group-algebra blocks: a transitive groupoid on two
# units with Z2 isotropy has two 2x2 blocks.
T = gpd.transitive_groupoid(2, Z2)
print("transitive with Z2 isotropy:",
      matalg.wedderburn_signature(gpd.convolution_algebra(T).span))

# ---------------------------------------------------------------------------
# A cocycle into Z2 and the skew-product groupoid (two disjoint pairs here).
c = gpd.cocycle_from_names(Q, Z2, {"x11": "e", "x22": "e", "x12": "g", "x21": "g"})
skew = gpd.skew_product_groupoid(Q, Z2, c)
print("\nskew product:", skew, "signature:",
      matalg.wedderburn_signature(gpd.convolution_algebra(skew).span))

# The kernel subgroupoid N = c^-1(e) embeds faithfully (dimension count).
print("kernel embedding:", gpd.kernel_embedding_check(Q, c).as_dict())

# ---------------------------------------------------------------------------
# The two duality certificates and the full theorem by signatures.
cert = gpd.certify_gpd_iso(Q, Z2, c)
print("\nC*(Q) x_delta G = C*(Q x_c G):", cert.passed,
      f"(dims {cert.lhs_dim} = {cert.rhs_dim})")

trans = gpd.translation_groupoid_action(skew, Z2)
cert2 = gpd.certify_semi_cross(skew, Z2, trans)
print("C*(R x| G) = C*(R) x_beta G:", cert2.passed,
      f"(dims {cert2.lhs_dim} = {cert2.rhs_dim})")

cert3 = gpd.certify_full_groupoid(Q, Z2, c)
print("C*(Q x_c G) x_beta G = C*(Q) (x) M_2:", cert3.passed,
      f"(signatures {cert3.signatures})")

# Conditional expectations and the norm identities behind the reduced theory.
report = gpd.expectations_and_norm_identities(skew, Z2, trans, n_random=50)
print("\nexpectation identities:", {c.name: c.passed for c in report.checks})

# A cocycle with non-trivial isotropy transport, into Z3.
rng = np.random.default_rng(11)
from skewprod import suite
Q2 = suite.random_groupoid(rng)
c2 = suite.random_cocycle(rng, Q2, Z3)
print("\nrandom groupoid:", Q2, "->",
      gpd.certify_full_groupoid(Q2, Z3, c2, rng=rng).passed)
