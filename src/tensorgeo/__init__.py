"""Geometry of fixed-rank tensor sets as homogeneous spaces.

Compact coset representatives, horizontal tangents, and complete
canonical-metric geodesics for three families of tensors: fixed CP rank,
fixed multilinear rank with t_1 = t_2...t_d, and fixed TT rank.  Geodesics
cost O(n k^2) per mode through low-rank psi1 kernels.  The psi1 kernels and
the paper's itemized update, which the flop audit runs as its reference,
report into an exact rational flop ledger.

The three manifolds share one point type, one tangent type (one n x k
array of leading columns per mode) and every geometric operation
(``embed``, ``geodesic``, ``project_horizontal``,
``horizontality_residual``, ``random_horizontal``, ``reductive_check``);
``cp``, ``tucker`` and ``tt`` hold only their shapes, their ways of making
points and their membership tests.
"""

from .dense import (mode_apply, multilinear_rank, select_submatrix, tt_rank,
                    unfold, refold)
from .flops import FlopLedger, geodesic_formula
from .group import (AlgebraElement, GroupElement, ModeBlocks, adjoint,
                    euclidean_inner, gamma12, lowrank_geodesic_step,
                    reduce_columns, right_invariant_inner)
from .psi import (LowRankPair, LowRankUpdate, ScalingPlan, inv_lowrank_update,
                  make_scaling_plan, mexp_lowrank, psi1)
from .homogeneous import (ManifoldTangent, Point, embed, geodesic,
                          horizontality_residual, make_shape,
                          project_horizontal, random_horizontal,
                          reductive_check)
from .cp import (CpPoint, CpShape, CpTangent, cp_geodesic,
                 cp_point_from_factors, cp_random_horizontal, cp_random_point)
from .tucker import (TuckerPoint, TuckerShape, TuckerTangent, t1_window,
                     tucker_geodesic, tucker_m_membership,
                     tucker_point_from_decomposition, tucker_random_horizontal,
                     tucker_random_point)
from .tt import (TtPoint, TtShape, TtTangent, tt_geodesic, tt_m_membership,
                 tt_point_from_cores, tt_random_horizontal, tt_random_point)

__version__ = "0.1.0"
