"""Geodesics on the manifold of fixed CP-rank tensors.

A tensor of CP rank r with independent factor columns is a point on a
homogeneous space: the mode-wise group orbit of the diagonal reference
tensor.  Points are stored as r leading columns per mode, tangents as
coupled block pairs, and geodesics of the canonical metric cost O(n r^2)
per mode.  This script builds a point from factors, projects a tangent,
shoots a geodesic, and confirms everything against dense oracles.  The
operation count comes from the paper's itemized update, which the flop
audit runs beside the production step.
"""
import numpy as np

import tensorgeo.homogeneous as hq
from tensorgeo import (CpShape, FlopLedger, cp_embed, cp_flop_formula,
                       cp_geodesic, cp_is_horizontal, cp_point_from_factors,
                       cp_project_horizontal, cp_reference_tensor,
                       cp_stabilizer_sample, mode_apply, multilinear_rank)
from tensorgeo.audit import itemized_geodesic
from tensorgeo.group import AlgebraElement
from tensorgeo.oracles import contract_cp, dense_geodesic

rng = np.random.default_rng(1)

print("== a CP rank-3 point in R^20 x R^20 x R^20 ==")
shape = CpShape((20, 20, 20), 3)
factors = [np.linalg.qr(rng.standard_normal((20, 3)))[0] for _ in range(3)]
p = cp_point_from_factors(factors)
T = cp_embed(p)
print(f"embedding vs direct CP sum : {np.abs(T - contract_cp(factors)).max():.3e}")
print(f"multilinear rank           : {multilinear_rank(T)}")
print(f"storage: {sum(20 * 3 for _ in range(3))} numbers instead of {20 ** 3}")
print()

print("== the stabilizer fixes the reference tensor ==")
ref = cp_reference_tensor(shape)
h = cp_stabilizer_sample(shape, seed=4).group_element()
print(f"|h . T - T| = {np.abs(mode_apply(h, ref) - ref).max():.3e}")
print()

print("== horizontal tangents ==")
z = AlgebraElement([rng.standard_normal((20, 20)) for _ in range(3)])
x = cp_project_horizontal(p, z)
print(f"projected tangent is horizontal: {cp_is_horizontal(p, x)}")
print()

print("== shooting a geodesic, low-rank vs dense ==")
q = cp_geodesic(p, x, 1.0)
ledger = FlopLedger()
itemized_geodesic(p, x, 1.0, ledger)
g = hq.densify(p)
xa = hq.lift_tangent(p, x)
dense_cols = dense_geodesic(g, xa, 1.0)
T_dense = shape.embed_columns([f[:, :3] for f in dense_cols])
T_low = cp_embed(q)
print(f"relative embedding error vs dense path: "
      f"{np.linalg.norm(T_low - T_dense) / np.linalg.norm(T_dense):.3e}")
print(f"multilinear rank after the step       : {multilinear_rank(T_low)}")
print(f"itemized update's recorded operations : {float(ledger.total):.0f}")
print()

print("== the same geodesic from another representative of the coset ==")
p2 = hq.transport_point(p, h)
x2 = cp_project_horizontal(p2, hq.transport_tangent(xa, h))
e1 = cp_embed(cp_geodesic(p, x, 0.7))
e2 = cp_embed(cp_geodesic(p2, x2, 0.7))
print(f"embeddings agree to {np.linalg.norm(e1 - e2) / np.linalg.norm(e1):.3e}")
print()

print("== long-time behaviour: the metric is complete ==")
# normalize the velocity, then travel far; the representative's conditioning
# degrades but never breaks down, so the strict re-pivot gate is lifted
from tensorgeo.group import right_invariant_inner
speed = np.sqrt(right_invariant_inner(g, xa, xa))
far, _ = hq.geodesic(p, x.scale(1.0 / speed), 25.0, repivot_tol=0.0)
sv = [np.linalg.svd(mb.g11, compute_uv=False) for mb in far.modes]
print("smallest leading-block singular values at t = 25:",
      " ".join(f"{s[-1]:.2e}" for s in sv))
print()
print(f"cost formula at n = (100,100,100), r = 5, z = (3,3,3): "
      f"{cp_flop_formula(CpShape((100,) * 3, 5), (3, 3, 3))} operations")
