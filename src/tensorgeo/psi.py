"""The psi1 function and the low-rank exponential and inverse kernels.

psi1(x) = (e^x - 1)/x extended to matrices by its power series.  On arguments
of Frobenius norm at most 1/2 a degree (6,6) Pade quotient is accurate to
double precision; larger arguments are scaled by a power of two and
reconstructed through the doubling identity

    psi1(2X) = psi1(X) (mexp(X) + 1) / 2.

``psi1`` evaluates a whole (..., m, m) stack as one chain under one scaling
plan, so every matrix of the stack gets the same exponent z: one
(7, b, m, m) table of the powers I, x, ..., x^6 built by five batched
products; one contraction of that table with a (4, 7) coefficient matrix,
which gives the numerators and denominators of both Pade quotients at once;
one batched solve for both quotients, each evaluated as identity plus a
correction so that its dominant diagonal carries no round-off; and z-1
batched square-and-multiply steps, whose halvings are deferred to one
scaling by 2^(1-z) at the end; the chain runs under numpy's "raise"
error state, so an entry past the double range raises a ValueError naming
z instead of leaking an overflow warning and an inf.  The psi1 quotient is
evaluated directly at level z-1 by scaling its coefficients, which is valid
because the scaling exponent guarantees norm <= 1/4 at level z, hence
<= 1/2 at level z-1.  An argument of norm at most 1/2 takes z = 0: the
table and the psi1 rows alone, one solve and no chain.

``psi1`` enters through one reduction, ``max_norm``: an einsum of the
squared entries per matrix and its maximum.  It is finite exactly when every
entry is finite and no sum of squares overflows, so the one number serves
the finiteness check, the default plan and the check that a given plan is
strong enough; finite entries whose squares overflow raise the plan's error,
without an overflow warning.  The dense exponential of the tests and
audits is ``oracles.mexp_dense``.

The recorded operation count of a 2-D argument lands exactly on the
published itemization: a six-multiply power table (five powers plus the
odd/even assembly of the exponential quotient, which the contraction reads
off the table), two divisions, and z-1 squarings plus z-1 doubling products.
Stacks are not ledgered.

All kernels are pure; the optional ledger only records counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dense import identity

# degree (6,6) Pade coefficients of psi1, low order first
PSI1_PADE_NUM = np.array([1.0, 1.0 / 26, 5.0 / 156, 1.0 / 858, 1.0 / 5720,
                          1.0 / 205920, 1.0 / 8648640])
PSI1_PADE_DEN = np.array([1.0, -6.0 / 13, 5.0 / 52, -5.0 / 429, 1.0 / 1144,
                          -1.0 / 25740, 1.0 / 1235520])
# exact numerator-minus-denominator coefficients; evaluating the quotient as
# identity plus a correction keeps the result's dominant diagonal free of
# round-off
PSI1_PADE_DIFF = np.array([0.0, 1.0 / 2, -5.0 / 78, 1.0 / 78, -1.0 / 1430,
                           1.0 / 22880, -1.0 / 1441440])
# degree (6,6) Pade numerator of exp; the denominator is the same with
# alternating signs
EXP_PADE = np.array([1.0, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792,
                     1.0 / 15840, 1.0 / 665280])

PADE_NORM_BOUND = 0.5

# Coefficient rows contracted against the power table [I, x, ..., x^6]:
# numerator-minus-denominator rows first, then the matching denominators.
# The exp quotient is (V + U)/(V - U) with U and V its odd and even parts,
# so its rows are 2U and V - U.  Weighting psi1's coefficient j by 2^j
# evaluates its quotient at 2x, one level below the table's.
_ALT = (-1.0) ** np.arange(7)
_POW2 = 2.0 ** np.arange(7)
_PSI1_ROWS = np.array([PSI1_PADE_DIFF, PSI1_PADE_DEN])
_EXP_ROWS = np.array([(1.0 - _ALT) * EXP_PADE, _ALT * EXP_PADE])
_SCALED_ROWS = np.array([_POW2 * PSI1_PADE_DIFF, _EXP_ROWS[0],
                         _POW2 * PSI1_PADE_DEN, _EXP_ROWS[1]])


@dataclass(frozen=True)
class ScalingPlan:
    """Scaling exponent for one psi1/mexp evaluation.

    z = 0 whenever the norm is already <= 1/2; otherwise
    z = ceil(log2 norm) + 2, which over-scales to norm <= 1/4 so that the
    level z-1 argument is still within the Pade bound.
    """
    z: int


def make_scaling_plan(norm):
    """Plan from a nonnegative finite norm; never returns z = 1."""
    norm = float(norm)
    if not norm >= 0.0 or math.isinf(norm):
        raise ValueError("norm must be finite and nonnegative")
    if norm <= PADE_NORM_BOUND:
        return ScalingPlan(0)
    return ScalingPlan(max(0, math.ceil(math.log2(norm)) + 2))


def _check_finite(m):
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite input")


def _entry_norm(m):
    """``max_norm(m)``; raises if an entry, not just a square, is non-finite."""
    top = max_norm(m)
    if not math.isfinite(top):
        _check_finite(m)
    return top


def max_norm(m):
    """Largest Frobenius norm of a (..., m, m) stack, or the norm of a matrix.

    One reduction over the entries.  The result is finite exactly when every
    entry is finite and no sum of squares overflows: it is inf or nan
    otherwise, and no warning is raised.
    """
    sq = np.einsum("...ij,...ij->...", m, m)
    # a matrix gives a numpy scalar, whose .max() costs more than the sum
    return math.sqrt(sq.max() if sq.ndim else sq)


def _quotients(x, rows):
    """Pade quotients of a (b, m, m) stack, one per pair of coefficient rows.

    ``rows`` holds q numerator-minus-denominator rows, then the q matching
    denominator rows.  They are contracted against the (7, b, m, m) power
    table in one product, and one batched solve of den y = (num - den)
    gives each quotient as 1 + y.  Returns a (q, b, m, m) array.
    """
    b, m, _ = x.shape
    pows = np.empty((7, b, m, m))
    pows[0] = identity(m)
    pows[1] = x
    for j in range(1, 6):
        np.matmul(pows[j], x, out=pows[j + 1])
    q = len(rows) // 2
    sums = (rows @ pows.reshape(7, -1)).reshape(2 * q, b, m, m)
    out = np.linalg.solve(sums[q:], sums[:q])
    out += pows[0]
    return out


def psi1(m, ledger=None, plan=None):
    """psi1 of a square matrix or a stack of them, to near machine precision.

    Any norm is accepted.  A (..., m, m) stack is evaluated as one chain
    under one plan, by default the plan of its largest norm; each of its
    matrices must be within that plan's Pade bound.  ``plan`` overrides the
    scaling plan (it must scale at least as strongly as the matrix
    requires); plans with z = 1 are rejected because the doubling chain
    starts one level above the Pade evaluation.  Only a 2-D argument may be
    ledgered.  Raises ``ValueError`` naming z when an entry of the doubling
    chain overflows, without a warning.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim > 2 and ledger is not None:
        raise ValueError("a ledger records psi1 of a single matrix only")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("psi1 needs square matrices")
    top = _entry_norm(m)
    if plan is None:
        plan = make_scaling_plan(top)
    z = plan.z
    if z == 1:
        raise ValueError("plans with z = 1 are not used; scale to z >= 2")
    if top * 2.0 ** -z * (2.0 if z else 1.0) > PADE_NORM_BOUND * (1 + 1e-12):
        raise ValueError("scaling plan too weak for this argument")
    k = m.shape[-1]
    if ledger is not None:
        # five powers, plus the exp quotient's odd/even assembly when scaled,
        # one division per quotient, and a squaring and a doubling product
        # per level of the chain
        for _ in range(5 if z == 0 else 6 + 2 * (z - 1)):
            ledger.mult(k, k, k)
        for _ in range(1 if z == 0 else 2):
            ledger.div(k, k, k)
    x = (m / 2.0 ** z).reshape(-1, k, k)
    if z == 0:
        return _quotients(x, _PSI1_ROWS)[0].reshape(m.shape)
    # psi1 at level z-1 via coefficient scaling, mexp at level z
    p, e = _quotients(x, _SCALED_ROWS)
    eye = identity(k)
    # the chain's entries grow like e^norm; one past the double range raises
    # here, typed, instead of an overflow warning and an inf in the result
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(z - 1):
                e = e @ e
                p = p @ (e + eye)
    except FloatingPointError:
        raise ValueError(f"psi1 overflows its doubling chain at z = {z}") \
            from None
    # the doubling identity's halvings, all at once: a power of two scales
    # every rounding alike, so this is exact unless an entry over- or
    # underflows
    p *= 2.0 ** (1 - z)
    return p.reshape(m.shape)


# ---------------------------------------------------------------------------
# low-rank updates of the identity

@dataclass(frozen=True, eq=False)
class LowRankPair:
    """An n x n matrix ``left @ right`` held as n x k and k x n factors."""
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left, right = np.asarray(self.left), np.asarray(self.right)
        if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[0]:
            raise ValueError("inner dimensions of the factor pair do not match")
        if left.shape[0] != right.shape[1]:
            raise ValueError("pair does not represent a square matrix")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def n(self):
        return self.left.shape[0]

    @property
    def k(self):
        return self.left.shape[1]


@dataclass(frozen=True, eq=False)
class LowRankUpdate:
    """identity + left @ core @ right, never formed densely in kernels."""
    core: np.ndarray
    pair: LowRankPair

    def densify(self):
        """Materialize the n x n matrix; test and oracle paths only."""
        p = self.pair
        return np.eye(p.n) + p.left @ self.core @ p.right


def mexp_lowrank(pair, ledger=None):
    """mexp(left @ right) = 1 + left psi1(right @ left) right.

    Only the k x k product and the psi1 evaluation are performed; cost
    2nk^2 plus the psi1 count.
    """
    ba = pair.right @ pair.left
    if ledger is not None:
        ledger.mult(pair.k, pair.n, pair.k)
    return LowRankUpdate(psi1(ba, ledger), pair)


def inv_lowrank_update(pair, ledger=None):
    """Exact inverse of identity + left @ right, as a low-rank update.

    Uses 1/(1 + AB) = 1 - A (1/(1 + BA)) B.  Raises if the k x k system
    1 + BA is singular, which happens exactly when the n x n update is.
    """
    ba = pair.right @ pair.left
    if ledger is not None:
        ledger.mult(pair.k, pair.n, pair.k)
    k = pair.k
    sys = np.eye(k) + ba
    if ledger is not None:
        ledger.div(k, k, k)
    cond = np.linalg.cond(sys)
    if not np.isfinite(cond) or cond > 1e14:
        raise np.linalg.LinAlgError("identity + right@left is numerically singular")
    return LowRankUpdate(-np.linalg.solve(sys, np.eye(k)), pair)
