"""Right-invariant geometry of GL(n_1) x ... x GL(n_d).

The metric is the Euclidean inner product on the algebra translated to a
right-invariant metric on the group.  Its geodesics through g with initial
velocity X factor per mode as

    exp_g(X) = mexp(w - w^T) mexp(w^T) g,      w = X g^-1,

which is complete for all times.  For horizontal velocities of the quotient
constructions, w has rank k per mode and the update of the leading k columns
is computed without ever forming an n x n matrix.  The formula's dense
evaluation, O(n^3) per mode, is ``oracles.dense_geodesic``, which tests and
audits compare against.

The production step is the Gram form, in the basis Q = [G1, X1] (n x 2k)
of G1 and X1, the point's and the tangent's leading columns: the geodesic
moves only span(Q).  For a step to time t, horizontality makes
w = t X g^-1 = t X1 M^-1 G1^T with M = G1^T G1, so with S = t G1^T X1 and
P = X1^T X1, blocks of the one Gram H = Q^T Q:

- w^T G1 = G1 Y with Y = M^-1 S^T, so mexp(w^T) G1 = G1 mexp(Y);
- w - w^T = Q A Q^T with A = [[0, -t M^-1], [t M^-1, 0]], and for any
  L = Q A Q^T the series gives mexp(L) Q = Q mexp(A H), where
  A H = K = [[-Y, -t M^-1 P], [t, M^-1 S]].

So the new leading columns are Q mexp(K)[:, :k] mexp(Y) = Q C for a 2k x k
matrix C: one Gram and one n x 2k by 2k x k product, about
12nk^2 + O(k^3 z) per mode, against the 110nk^2/3 of the paper's itemized
update.  K's blocks grow like t, where the paper's psi1 argument B'A' grows
like t^2, so the step's exponentials take fewer squarings than psi1's
chain would, and each squaring saved keeps about a bit.  That update is
kept as ``itemized_step``, the flop audit's own reference: it charges
every product to a ledger line, and no geodesic entry point runs it.

Both exponentials come from one ``psi.mexpm1`` chain over the stack
[K, blockdiag(Y - mu I, 0)], degree-13 Pade scaling and squaring under the
plan of the stack's largest Frobenius norm.  The trace shift
mu = tr(Y)/k (Ward, SINUM 1977) keeps mexp(Y)'s relative digits: Y and
mu I commute, so mexp(Y) = e^mu mexp(Y - mu I) exactly, and C takes the
scalar e^mu last.  Without it, a Y with large negative eigenvalues has
mexp(Y) = I + D_Y with D_Y near -I, and the sum keeps only absolute
digits; the real parts of Y - mu I's eigenvalues sum to zero, so they
cannot all be large and negative, and its exponential has no such
cancellation.  The shift moves no plan: Y - mu I is Y's projection off the
identity in the Frobenius inner product, so ||Y - mu I||_F <= ||Y||_F <=
||K||_F, since K holds -Y, and z stays K's.  K itself needs no shift, as
tr K = tr(M^-1 S) - tr(M^-1 S^T) = 0.  An e^mu past the double range
raises a typed ``ValueError`` naming mu.

On small k the k x k phase costs numpy's call overhead more than flops, so
the step calls LAPACK directly where numpy would wrap the same routine:
K's and Y's blocks are one ``dgesv`` LU solve of M, and the g11 gate on
every new representative reads its singular values from ``dgesdd``.  Both
raise numpy's texts on failure ("Singular matrix", "SVD did not
converge"); a step's keep test below reads the same ``dgesdd``.

Each mode of a representative is stored as a row permutation and one n x k
array G1 of the permuted factor's leading columns, and each mode of a
tangent as one n x k array X1 in the same frame, which the per-mode
kernels take bare.  Both are column-major, as
is the Gram step's n x k output, so Q = [G1, X1] is two contiguous column
blocks, and the re-pivot's LU reads contiguous columns.  The metric is
invariant under left multiplication by orthogonal matrices, so a step works
in the permuted frame and re-pivots its n x k result there: the LU's k row
swaps are applied to the result in place, and the new permutation is the
old one composed with them.  So the unselected rows keep the old frame's
order, except for the at most k rows the swaps displace.

A point is a coset, so any frame whose g11 is invertible represents it, and
the Gram form never reads g11^-1.  So a step keeps the old frame when it is
provably good, and re-pivots only otherwise.  With G1 the new columns in the
old frame and sigma the smallest singular value of their g11, the frame is
kept iff

    KEEP_BOUND sigma >= ||G1||_F   and   sigma > 2 tol sqrt(nk) ||G1||_F,

tol the re-pivot tolerance and KEEP_BOUND = 2^10.  Then:

- cond(g11) <= ||G1||_F / sigma <= KEEP_BOUND, far inside the g11 gate's
  1e-12, so the kept block needs no gate of its own;
- the LU gate would accept G1: sigma_min(G1) >= sigma, partial pivoting
  has |L| <= 1, so ||L||_2 <= sqrt(nk) and every pivot |u_jj| is at least
  sigma_min(G1) / sqrt(nk), while max|entry| <= ||G1||_F.  The factor 2
  leaves room for rounding.  A kept frame is thus one the re-pivot would
  have accepted, and a step fails exactly when it did before.

The test costs one k x k ``dgesdd`` and no pass over the n x k output.  The
step reads ||G1||_F^2 = tr(C^T H C) from the Gram it already has, and it
trusts the output to be finite only when C is finite and
tr(H) ||C||_F^2 < 2^1000: each entry of Q C, and each partial sum of one,
is at most sqrt(tr H) ||C||_F in size, so no step of the product
overflows.  Otherwise the step re-pivots, and the LU's pass raises the
typed "non-finite input" as before.  A re-pivot changes only the row order
of the representative, never its ambient columns, so a kept step's columns
are bit for bit a re-pivoted step's.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dense import (identity, is_permutation, lapack, perm_inverse,
                    select_submatrix)
from .psi import make_scaling_plan, max_norm, mexpm1, psi1

INVERTIBILITY_TOL = 1e-12
REPIVOT_TOL = 1e-10
# a step keeps its frame while ||G1||_F <= KEEP_BOUND sigma_min(g11)
KEEP_BOUND = 2.0 ** 10
_FINITE_BOUND = 2.0 ** 1000


# ---------------------------------------------------------------------------
# group and algebra elements

@dataclass(frozen=True, eq=False)
class GroupElement:
    """d-tuple of square invertible matrices."""
    factors: tuple

    def __init__(self, factors):
        factors = tuple(np.asarray(f, dtype=float) for f in factors)
        for i, f in enumerate(factors):
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise ValueError(f"factor {i} is not square")
            s = np.linalg.svd(f, compute_uv=False)
            if s[-1] <= INVERTIBILITY_TOL * s[0]:
                raise ValueError(f"factor {i} is numerically singular")
        object.__setattr__(self, "factors", factors)

    @property
    def dims(self):
        return tuple(f.shape[0] for f in self.factors)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """d-tuple of square matrices, one per mode."""
    factors: tuple

    def __init__(self, factors):
        factors = tuple(np.asarray(f, dtype=float) for f in factors)
        for i, f in enumerate(factors):
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise ValueError(f"factor {i} is not square")
        object.__setattr__(self, "factors", factors)

    @property
    def dims(self):
        return tuple(f.shape[0] for f in self.factors)

    def norm(self):
        return float(np.sqrt(sum(np.sum(f * f) for f in self.factors)))


def _factors(x):
    return getattr(x, "factors", x)


def _check_profile(x, y):
    fx, fy = _factors(x), _factors(y)
    if len(fx) != len(fy) or any(a.shape != b.shape for a, b in zip(fx, fy)):
        raise ValueError("dimension profiles do not match")


def euclidean_inner(z, w):
    """Sum of per-mode Frobenius inner products tr(Z_i W_i^T)."""
    _check_profile(z, w)
    return float(sum(np.sum(a * b) for a, b in zip(_factors(z), _factors(w))))


def right_invariant_inner(g, x, y):
    """Inner product of tangents at g: Euclidean pairing of X g^-1, Y g^-1."""
    _check_profile(g, x)
    _check_profile(g, y)
    total = 0.0
    for gi, xi, yi in zip(_factors(g), _factors(x), _factors(y)):
        wx = np.linalg.solve(gi.T, xi.T).T
        wy = np.linalg.solve(gi.T, yi.T).T
        total += float(np.sum(wx * wy))
    return total


def adjoint(h, x):
    """Conjugation h_i x_i h_i^-1 per mode."""
    _check_profile(h, x)
    return AlgebraElement(tuple(hi @ xi @ np.linalg.inv(hi)
                                for hi, xi in zip(_factors(h), _factors(x))))


# ---------------------------------------------------------------------------
# compact representatives

@dataclass(frozen=True, eq=False)
class ModeBlocks:
    """One mode of a representative: a row permutation and one n x k array.

    Row j of ``g1`` is row perm[j] of the ambient factor's first k columns;
    its leading k x k block g11 must be invertible, and the trailing columns
    are an identity completion in this permuted frame.  ``g1`` is stored
    column-major.  ``g11`` and ``g21`` are views of its first k and last
    n-k rows, so a write through either one is a write to the point.
    """
    perm: np.ndarray
    g1: np.ndarray

    def __init__(self, perm, g11, g21):
        perm = np.asarray(perm)
        if not is_permutation(perm):
            raise ValueError("perm is not a permutation")
        g11 = np.asarray(g11, dtype=float)
        g21 = np.asarray(g21, dtype=float)
        k = g11.shape[0]
        if g11.ndim != 2 or g11.shape != (k, k):
            raise ValueError("g11 is not square")
        if g21.shape != (len(perm) - k, k):
            raise ValueError("g21 has inconsistent shape")
        g1 = np.empty((len(perm), k), order="F")
        g1[:k] = g11
        g1[k:] = g21
        if not np.isfinite(g1).all():
            raise ValueError("non-finite input")
        self._fill(perm, g1, INVERTIBILITY_TOL)

    @classmethod
    def _from_selection(cls, perm, g1, invert_tol):
        """Blocks on rows ``select_submatrix`` has just ordered.

        Such a permutation needs no sort-based check, and such rows have
        passed its finiteness check; the singularity gate on g11 still runs.
        """
        blocks = object.__new__(cls)
        blocks._fill(perm, g1, invert_tol)
        return blocks

    @classmethod
    def _kept(cls, perm, g1):
        """Blocks in a frame ``_keeps_frame`` has proved good: their rows
        are finite and cond(g11) <= KEEP_BOUND, so no check runs again."""
        blocks = object.__new__(cls)
        object.__setattr__(blocks, "perm", perm)
        object.__setattr__(blocks, "g1", g1)
        return blocks

    def _fill(self, perm, g1, invert_tol):
        s = _g11_singular_values(g1)
        # the rows are finite here, so a failed SVD is its non-convergence
        if s is None:
            raise np.linalg.LinAlgError("SVD did not converge")
        if (not np.isfinite(s).all() or s[-1] <= invert_tol * s[0]
                or s[-1] == 0.0):
            raise ValueError("g11 is numerically singular")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "g1", g1)

    @property
    def n(self):
        return self.g1.shape[0]

    @property
    def k(self):
        return self.g1.shape[1]

    @property
    def g11(self):
        return self.g1[:self.k]

    @property
    def g21(self):
        return self.g1[self.k:]

    def leading_columns(self):
        """Ambient n x k leading columns (permuted rows scattered back)."""
        c = np.empty((self.n, self.k))
        c[self.perm] = self.g1
        return c

    def densify(self):
        """Full ambient factor with identity completion; test paths only."""
        n, k = self.n, self.k
        full = np.zeros((n, n))
        full[:, :k] = self.g1
        full[k:, k:] = np.eye(n - k)
        return full[perm_inverse(self.perm)]


def _g11_singular_values(g1):
    """Singular values of g1's leading k x k block, or None on failure.

    LAPACK's divide-and-conquer SVD, the routine np.linalg.svd calls.
    """
    _, s, _, info = lapack().dgesdd(g1[:g1.shape[1]], compute_uv=0)
    return None if info else s


def _keeps_frame(g1, norm_sq, tol):
    """Whether new columns ``g1`` may keep their frame, in O(k^3).

    ``norm_sq`` is ||G1||_F^2, computed by the caller without trusting the
    n x k output; outside (0, 2^1000), which includes nan, the frame is not
    kept.  With sigma the smallest singular value of g11, the frame is kept
    iff KEEP_BOUND sigma >= ||G1||_F and sigma > 2 tol sqrt(nk) ||G1||_F.
    Then cond(g11) <= KEEP_BOUND, and the LU gate would accept G1: see the
    module docstring.
    """
    if not 0.0 < norm_sq < _FINITE_BOUND:
        return False
    s = _g11_singular_values(g1)
    if s is None:
        return False
    n, k = g1.shape
    norm = math.sqrt(norm_sq)
    return bool(KEEP_BOUND * s[-1] >= norm
                and s[-1] > 2.0 * tol * math.sqrt(n * k) * norm)


def _repivot(perm, cols, tol):
    """Representative of n x k columns whose row j is ambient row perm[j].

    ``cols`` is the caller's own array, and its rows are reordered in
    place.  The selection is k row swaps, so only its first k positions and
    the selected rows' old positions change: those rows alone are gathered
    and written back.  The new permutation is the old one composed with the
    selection.  The selection runs in the given row order, so ties resolve
    in it; the coset and the selected rows do not depend on it.
    """
    sel = select_submatrix(cols, tol)
    k = cols.shape[1]
    rows = np.concatenate((np.arange(k), sel[:k]))
    cols[rows] = cols[sel[rows]]
    return ModeBlocks._from_selection(perm[sel], cols,
                                      min(tol, INVERTIBILITY_TOL))


def reduce_columns(c, tol=REPIVOT_TOL):
    """Representative of an ambient n x k full-rank leading-column matrix.

    ``tol = 0`` accepts any strictly nonsingular leading block; the default
    re-pivot gate rejects blocks past 1e-10 relative conditioning.  ``c`` is
    copied, column-major, before its rows are swapped.
    """
    c = np.array(c, dtype=float, order="F")
    return _repivot(np.arange(len(c)), c, tol)


# ---------------------------------------------------------------------------
# the coupling block Gamma12

def _coupling(blocks, ledger=None):
    """The k x n matrix [g11^-1 (1 + W)^-1, gamma12], W as in ``gamma12``.

    Its leading block equals (1 - gamma12 g21) g11^-1, so the whole matrix
    is the right factor B of the itemized step, which reads it from here.
    The ledger lines are gamma12's.
    """
    n, k = blocks.n, blocks.k
    eye = np.eye(k)
    g11_inv = np.linalg.solve(blocks.g11, eye)
    r = blocks.g21 @ g11_inv                     # g21 g11^-1
    w = r.T @ r
    s = np.linalg.solve(eye + w, eye)
    b = np.empty((k, n))
    b[:, :k] = g11_inv @ s                       # 1 - W (1 + W)^-1 = S
    b[:, k:] = b[:, :k] @ r.T
    if ledger is not None:
        # the published itemization, which also charges forming 1 - W S
        ledger.div(n, k, k)
        ledger.mult(k, n, k)
        ledger.div(k, k, k)
        ledger.mult(k, k, k)
        ledger.div(k, k, k)
        ledger.mult(k, k, n)
    return b


def gamma12(blocks, ledger=None):
    """Solve the horizontal coupling relation for the k x (n-k) block.

    Evaluates g11^-1 (1 - W (1 + W)^-1) g11^-T g21^T with the k x k matrix
    W = g11^-T g21^T g21 g11^-1, so no (n-k) x (n-k) inverse is formed; the
    middle factor is (1 + W)^-1 itself, which is what is computed.
    g11 is factorized once; its inverse reaches the n-row block by a matmul.
    The recorded cost is 20nk^2/3 + 22k^3/3.
    """
    return _coupling(blocks, ledger)[:, blocks.k:]


# ---------------------------------------------------------------------------
# the low-rank geodesic update of one mode

def _gram(blocks, x1):
    """Q = [G1, X1] (n x 2k, column-major) and its 2k x 2k Gram H = Q^T Q."""
    q = np.concatenate((blocks.g1, x1), axis=1)
    return q, q.T @ q


def _velocity_cores(h, t):
    """The cores [blockdiag(BA, 0), B'A'] of t X g^-1 = A B, from H.

    For a horizontal tangent B^T = G1 M^-1 in the permuted frame, with
    M = G1^T G1, so BA = M^-1 S with S = t G1^T X1, B B^T = M^-1 and
    A^T A = t^2 X1^T X1: every k x k core is a block of the Gram H.  They
    are the paper's psi1 arguments, whose norms set ``itemized_step``'s z.
    """
    k = h.shape[0] // 2
    # LAPACK's LU solve, the routine np.linalg.solve calls
    _, _, m_inv, info = lapack().dgesv(h[:k, :k], identity(k))
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    ba = m_inv @ (t * h[:k, k:])
    cores = np.zeros((2, 2 * k, 2 * k))
    cores[0, :k, :k] = ba
    bpap = cores[1]
    bpap[:k, :k] = ba
    bpap[:k, k:] = -m_inv
    bpap[k:, :k] = (t * t) * h[k:, k:]
    bpap[k:, k:] = -ba.T
    return cores


def _phase_stack(h, t):
    """The stack [K, blockdiag(Y - mu I, 0)] and the shift mu, from H.

    With M = G1^T G1, S = t G1^T X1 and P = X1^T X1, the blocks of H,
    Y = M^-1 S^T and K = [[-Y, -t M^-1 P], [t, M^-1 S]]: one LU solve of M
    against [X1^T G1, P, G1^T X1] gives every block.  mu = tr(Y)/k comes
    off Y's diagonal through a strided view: mexp(Y) = e^mu mexp(Y - mu I).
    """
    k = h.shape[0] // 2
    # LAPACK's LU solve, the routine np.linalg.solve calls
    _, _, sol, info = lapack().dgesv(
        h[:k, :k], np.concatenate((h[k:], h[:k, k:]), axis=1))
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    sol *= t
    stack = np.zeros((2, 2 * k, 2 * k))
    np.negative(sol[:, :2 * k], out=stack[0, :k])
    stack[0, k:, :k] = t * identity(k)
    stack[0, k:, k:] = sol[:, 2 * k:]
    stack[1, :k, :k] = sol[:, :k]
    diag = stack[1].reshape(-1)[:k * (2 * k + 1):2 * k + 1]
    mu = float(diag.sum()) / k
    diag -= mu
    return stack, mu


def lowrank_geodesic_step(blocks, x1, t=1.0, *, repivot_tol=REPIVOT_TOL):
    """New representative of the leading k columns of exp_g(tX) for one mode.

    ``x1`` holds the tangent's n x k leading columns in the permuted frame.

    Works entirely with n x k and smaller intermediates.  With Q = [G1, X1]
    (n x 2k) and H = Q^T Q, the new leading columns are Q C for the 2k x k
    matrix of the module docstring's derivation,

        C = mexp(K)[:, :k] mexp(Y) = (I_{2k,k} + D_K[:, :k]) (I + D_Y) e^mu,

    one Gram and one n x 2k by 2k x k product, about 12nk^2 + O(k^3 z).
    The corrections D = mexp - 1 of the stack [K, blockdiag(Y - mu I, 0)],
    mu = tr(Y)/k, come from one ``mexpm1`` chain under the plan of the
    stack's largest norm, which is K's, so the mode has a single z.  A
    non-finite entry of the stack makes ``mexpm1`` raise.

    The new columns keep the old frame when the keep test of the module
    docstring proves it good, KEEP_BOUND sigma_min(g11) >= ||G1||_F with
    the LU gate's acceptance implied, and the result then shares the
    input's permutation.  Otherwise they are re-pivoted in the
    representative's own row order.

    Raises ``ValueError`` before any work when t is not finite, and naming
    mu when e^mu or C is past the double range.

    Returns (new ModeBlocks, z).
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    k = blocks.k
    if x1.shape != blocks.g1.shape:
        raise ValueError("tangent blocks do not match the representative")
    q, h = _gram(blocks, x1)
    stack, mu = _phase_stack(h, t)
    d, z = mexpm1(stack)
    # C = mexp(K)[:, :k] mexp(Y - mu) e^mu, from the corrections; an e^mu
    # or a C past the double range raises here, typed, without a warning
    e = d[0, :, :k].copy()
    e[:k] += identity(k)
    try:
        with np.errstate(over="raise", invalid="raise"):
            c = e @ d[1, :k, :k]
            c += e
            c *= math.exp(mu)
    except (OverflowError, FloatingPointError):
        raise ValueError("mexp(Y) overflows the double range at "
                         f"mu = {mu:.6g}") from None
    # column-major like Q: the re-pivot's LU copies contiguous columns
    out = (c.T @ q.T).T
    del q  # the re-pivot runs without Q's n x 2k copy alive
    # no entry of Q C, nor any partial sum of one, exceeds sqrt(tr H) ||C||_F
    # in size: under the bound the output is finite without a pass over it,
    # and ||G1||_F^2 = tr(C^T H C) is a k x k product
    if float(np.trace(h)) * float(np.vdot(c, c)) < _FINITE_BOUND:
        if _keeps_frame(out, float(np.vdot(c, h @ c)), repivot_tol):
            return ModeBlocks._kept(blocks.perm, out), z
    return _repivot(blocks.perm, out, repivot_tol), z


def mode_velocity_norms(blocks, x1, t=1.0):
    """Frobenius norms of (BA, B'A') for one mode at time t."""
    cores = _velocity_cores(_gram(blocks, x1)[1], t)
    k = blocks.k
    return max_norm(cores[0, :k, :k]), max_norm(cores[1])


# ---------------------------------------------------------------------------
# the paper-itemized update, the instrumented path of the flop audit
#
# A is n x k and B is k x n, both in the representative's permuted frame.

def _bpap(a, b, ba):
    """B'A' = [B; A^T] [A, -B^T] = [BA, -BB^T; A^TA, -(BA)^T]."""
    k = ba.shape[0]
    out = np.empty((2 * k, 2 * k))
    out[:k, :k] = ba
    out[:k, k:] = b @ b.T
    out[k:, :k] = a.T @ a
    out[k:, k:] = ba.T
    out[:, k:] *= -1.0
    return out


def _ap_mul(a, b, x):
    """A' x = A x_1 - B^T x_2 for a 2k-row x."""
    k = x.shape[0] // 2
    return a @ x[:k] - b.T @ x[k:]


def itemized_step(blocks, x1, t, ledger, label=""):
    """The paper's update of one mode, each n-row product charged to its label.

    The flop audit's reference for ``lowrank_geodesic_step``: the same
    ambient columns, to rounding, under the z of its own psi1 arguments,
    BA and B'A'.  The four column terms are
    assembled in the composition order of the geodesic formula (skew factor
    applied last); the recorded counts follow the published per-step
    itemization, whose cross term assumes the reversed order and charges
    6nk^2 + 6k^3.  The coupling block of the point is computed here, so the
    recorded count covers the whole update.

    Returns (g1, z): the new n x k columns in the representative's permuted
    frame, not re-pivoted, and the mode's scaling exponent.  Raises
    ``ValueError("non-finite input")`` when an entry of g1 is not finite.
    """
    if x1.shape != blocks.g1.shape:
        raise ValueError("tangent blocks do not match the representative")
    n, k = blocks.n, blocks.k
    with ledger.step(label + "gamma12"):
        b = _coupling(blocks, ledger)
    with ledger.step(label + "build_B"):
        # B = [(1 - gamma12 g21) g11^-1, gamma12] came whole with gamma12;
        # the charge is the published itemization's cost of its first block
        a = t * x1
        ledger.mult(k, n, k)
        ledger.div(k, k, k)

    with ledger.step(label + "BA"):
        ba = b @ a
        ledger.mult(k, n, k)
    with ledger.step(label + "BpAp"):
        bpap = _bpap(a, b, ba)
        ledger.mult(2 * k, n, 2 * k)

    plan = make_scaling_plan(max(max_norm(bpap), max_norm(ba)))
    with ledger.step(label + "psi1_BA"):
        p = psi1(ba, ledger, plan)
    with ledger.step(label + "psi1_BpAp"):
        pp = psi1(bpap, ledger, plan)

    g1 = blocks.g1
    with ledger.step(label + "term2"):
        atg = a.T @ g1
        term2 = b.T @ (p.T @ atg)
        ledger.mult(k, n, k)
        ledger.mult(k, k, k)
        ledger.mult(n, k, k)
    with ledger.step(label + "term3"):
        term3 = _ap_mul(a, b, pp @ np.concatenate((b @ g1, atg)))
        ledger.mult(2 * k, n, k)
        ledger.mult(2 * k, 2 * k, k)
        ledger.mult(n, 2 * k, k)
    with ledger.step(label + "term4"):
        bpt2 = np.concatenate((b @ term2, a.T @ term2))
        term4 = _ap_mul(a, b, pp @ bpt2)
        ledger.mult(n, k, 2 * k)
        ledger.mult(k, 2 * k, k)
        ledger.mult(k, k, k)
        ledger.mult(n, k, k)
    out = g1 + term2 + term3 + term4
    if not np.isfinite(out).all():
        raise ValueError("non-finite input")
    return out, plan.z
