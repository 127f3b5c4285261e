"""The Tucker and tensor-train manifolds.

The same homogeneous-space construction covers tensors of fixed multilinear
rank (t_1, ..., t_d) with t_1 = t_2...t_d, and tensors of fixed TT rank.
The stabilizers couple modes through Kronecker factors, which turns the
candidate invariant complement into partial-trace constraints; reductivity
holds exactly for square shapes and fails with an explicit witness
otherwise.
"""
import numpy as np

import tensorgeo.homogeneous as hq
from tensorgeo import (TtShape, TuckerShape, mode_apply, multilinear_rank,
                       t1_window, tt_m_membership, tt_point_from_cores,
                       tt_rank, tucker_m_membership,
                       tucker_point_from_decomposition)
from tensorgeo.oracles import contract_tt, contract_tucker
from tensorgeo.tt import tt_random_cores
from tensorgeo.tucker import tucker_random_decomposition

rng = np.random.default_rng(2)

print("== which first ranks admit an orbit: the admissibility window ==")
print(f"trailing ranks (10, 10): t_1 must lie in {t1_window((10, 10))}")
print(f"trailing ranks (4, 4)  : t_1 must lie in {t1_window((4, 4))}")
print("only the top of the window (the product) is supported here\n")

print("== a Tucker point with ranks (4, 2, 2) in R^6 x R^4 x R^4 ==")
shape = TuckerShape((6, 4, 4), (4, 2, 2))
core, factors = tucker_random_decomposition(shape, rng)
p = tucker_point_from_decomposition(core, factors)
T = hq.embed(p)
print(f"embedding vs naive contraction: "
      f"{np.abs(T - contract_tucker(core, factors)).max():.3e}")
print(f"multilinear rank: {multilinear_rank(T)}")
h = shape.stabilizer_sample(np.random.default_rng(1)).group_element()
ref = shape.reference_tensor()
print(f"stabilizer fixes the reference: "
      f"{np.abs(mode_apply(h, ref) - ref).max():.3e}")
x = hq.random_horizontal(p, rng)
q, _ = hq.geodesic(p, x, 1.0)
print(f"rank after a geodesic step    : {multilinear_rank(hq.embed(q))}\n")

print("== the complement's trace conditions ==")
m = hq.sample_m(shape, rng)
print(f"a sampled complement element satisfies the partial-trace "
      f"conditions: {tucker_m_membership(shape, m)}")
bad = [f.copy() for f in m.factors]
bad[1][0, 0] += 0.1
from tensorgeo.group import AlgebraElement
print(f"after perturbing one leading block        : "
      f"{tucker_m_membership(shape, AlgebraElement(bad))}\n")

print("== reductivity is a dichotomy ==")
for s, tag in ((TuckerShape((4, 2, 2), (4, 2, 2)), "square (4,2,2)"),
               (TuckerShape((5, 2, 2), (4, 2, 2)), "padded (5,2,2)")):
    rep = hq.reductive_check(s, trials=50, seed=0)
    if rep.expected_reductive:
        print(f"{tag}: invariant, max residual {rep.max_invariance_residual:.2e}")
    else:
        print(f"{tag}: witness with normalized residual {rep.witness_residual:.2f}")
print()

print("== a TT point with ranks (2, 3) in R^10 x R^20 x R^10 ==")
tshape = TtShape((10, 20, 10), (2, 3))
cores = tt_random_cores(tshape, rng)
pt = tt_point_from_cores(cores)
Tt = hq.embed(pt)
print(f"embedding vs naive contraction: "
      f"{np.abs(Tt - contract_tt(cores)).max():.3e}")
print(f"TT rank {tt_rank(Tt)}, multilinear rank {multilinear_rank(Tt)}")
ht = tshape.stabilizer_sample(np.random.default_rng(2)).group_element()
reft = tshape.reference_tensor()
print(f"chained stabilizer fixes the reference: "
      f"{np.abs(mode_apply(ht, reft) - reft).max():.3e}")
xt = hq.random_horizontal(pt, rng)
qt, _ = hq.geodesic(pt, xt, 1.0)
print(f"TT rank after a geodesic step: {tt_rank(hq.embed(qt))}")
mt = hq.sample_m(tshape, rng)
print(f"trace chain holds on a sampled complement element: "
      f"{tt_m_membership(tshape, mt)}")
for s, tag in ((TtShape((2, 4, 2), (2, 2)), "square (2,4,2)"),
               (TtShape((3, 4, 2), (2, 2)), "padded (3,4,2)")):
    rep = hq.reductive_check(s, trials=50, seed=0)
    if rep.expected_reductive:
        print(f"{tag}: invariant, max residual {rep.max_invariance_residual:.2e}")
    else:
        print(f"{tag}: witness with normalized residual {rep.witness_residual:.2f}")
