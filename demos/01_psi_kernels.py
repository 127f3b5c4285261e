"""psi1 and the low-rank exponential and inverse kernels.

psi1(x) = (e^x - 1)/x is the paper's kernel: the exponential of a rank-k
matrix AB is the identity plus A psi1(BA) B, so all serious work happens at
size k x k.  In this library it serves the flop audit's itemized update,
``mexp_lowrank`` and the invariant suites; the geodesic step itself runs
``mexpm1`` on blocks of a Gram.  This script walks through the Pade
quotient, the scaling plan, and the two low-rank identities, with the exact
operation ledger alongside.
"""
import numpy as np

from tensorgeo import (FlopLedger, LowRankPair, inv_lowrank_update,
                       make_scaling_plan, mexp_lowrank, psi1)
from tensorgeo.flops import psi1_count
from tensorgeo.oracles import mexp_dense, psi1_series

rng = np.random.default_rng(0)

print("== psi1 on small arguments: degree (6,6) Pade quotient, z = 0 ==")
m = rng.standard_normal((5, 5))
m *= 0.4 / np.linalg.norm(m)
pade = psi1(m)
series = psi1_series(m)  # 60 terms in 80-bit precision
print(f"norm of argument          : {np.linalg.norm(m):.3f}")
print(f"deviation from the series : {float(np.linalg.norm(pade - series)):.3e}")
print(f"psi1 of the scalar 1/2    : {psi1(np.array([[0.5]]))[0, 0]:.16f}")
print(f"(exact (sqrt(e)-1)/0.5    : 1.2974425414002564)")
print()

print("== larger arguments: scale by 2^-z, then double back up ==")
for nrm in (0.3, 0.6, 3.0, 40.0):
    plan = make_scaling_plan(nrm)
    print(f"norm {nrm:6.2f} -> z = {plan.z}  (scaled to {nrm * 2.0 ** -plan.z:.4f})")
m = rng.standard_normal((6, 6))
m *= 12.0 / np.linalg.norm(m)
ledger = FlopLedger()
p = psi1(m, ledger)
residual = np.linalg.norm(m @ p - (mexp_dense(m) - np.eye(6)))
print(f"defining identity m psi1(m) = exp(m) - 1 : residual {residual:.3e}")
z = make_scaling_plan(np.linalg.norm(m)).z
print(f"ledger: {ledger.total} basic operations "
      f"= (52/3 + 4(z-1)) k^3 with z = {z}: {psi1_count(6, z)}")
print()

print("== the exponential of a rank-k matrix, without forming it ==")
n, k = 400, 4
pair = LowRankPair(rng.standard_normal((n, k)), rng.standard_normal((k, n)))
ledger = FlopLedger()
update = mexp_lowrank(pair, ledger)
print(f"n = {n}, k = {k}: kernel works on a {k} x {k} core")
print(f"ledger charges {float(ledger.total):.0f} operations "
       f"(a dense exponential would be ~{2 * 13 * n ** 3:.0f})")
dense = mexp_dense(pair.left @ pair.right)
err = np.linalg.norm(update.densify() - dense) / np.linalg.norm(dense)
print(f"agreement with the dense exponential: {err:.3e}")
print()

print("== the matching inverse identity ==")
update = inv_lowrank_update(pair)
res = (np.eye(n) + pair.left @ pair.right) @ update.densify() - np.eye(n)
print(f"(1 + AB)(1 - A (1+BA)^-1 B) = 1 : residual {np.abs(res).max():.3e}")
