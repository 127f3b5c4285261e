"""Geometry of fixed-rank tensor sets as homogeneous spaces.

Compact coset representatives, horizontal tangents, and complete
canonical-metric geodesics for three families of tensors: fixed CP rank,
fixed multilinear rank with t_1 = t_2...t_d, and fixed TT rank.  Geodesics
cost O(n k^2) per mode through low-rank psi1 kernels.  The psi1 kernels and
the paper's itemized update, which the flop audit runs as its reference,
report into an exact rational flop ledger.
"""

from .dense import (mode_apply, multilinear_rank, select_submatrix, tt_rank,
                    unfold, refold)
from .flops import FlopLedger, geodesic_formula
from .group import (AlgebraElement, GroupElement, HorizontalBlocks,
                    ModeBlocks, adjoint, euclidean_inner, gamma12, gl_exp,
                    lowrank_geodesic_step, reduce_columns,
                    right_invariant_inner)
from .psi import (LowRankPair, LowRankUpdate, ScalingPlan, inv_lowrank_update,
                  make_scaling_plan, mexp_lowrank, mexp_small, psi1, psi1_pade)
from .cp import (CpPoint, CpShape, CpTangent, cp_embed, cp_flop_formula,
                 cp_geodesic, cp_is_horizontal, cp_point_from_factors,
                 cp_project_horizontal, cp_random_horizontal, cp_random_point,
                 cp_reductive_check, cp_reference_tensor,
                 cp_stabilizer_sample)
from .tucker import (TuckerPoint, TuckerShape, TuckerTangent, t1_window,
                     tucker_embed, tucker_flop_formula, tucker_geodesic,
                     tucker_m_membership, tucker_point_from_decomposition,
                     tucker_project_horizontal, tucker_random_horizontal,
                     tucker_random_point, tucker_reductive_check,
                     tucker_reference_tensor, tucker_stabilizer_sample)
from .tt import (TtPoint, TtShape, TtTangent, tt_embed, tt_flop_formula,
                 tt_geodesic, tt_m_membership, tt_point_from_cores,
                 tt_project_horizontal, tt_random_horizontal, tt_random_point,
                 tt_reductive_check, tt_reference_tensor,
                 tt_stabilizer_sample)

__version__ = "0.1.0"
