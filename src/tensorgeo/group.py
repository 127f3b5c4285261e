"""Right-invariant geometry of GL(n_1) x ... x GL(n_d).

The metric is the Euclidean inner product on the algebra translated to a
right-invariant metric on the group.  Its geodesics through g with initial
velocity X factor per mode as

    exp_g(X) = mexp(w - w^T) mexp(w^T) g,      w = X g^-1,

which is complete for all times.  For horizontal velocities of the quotient
constructions, w has rank k per mode and the update of the leading k columns
is computed without ever forming an n x n matrix.

The production step is the Gram form.  Write w t = A B with A = t X1, X1
the tangent's leading columns, and G1 the point's.  Horizontality makes
B^T = G1 M^-1 with M = G1^T G1, so every n-row product the update needs is
a block of the one Gram H = Q^T Q of Q = [G1, X1] (n x 2k), and the new
leading columns are Q C for a 2k x k matrix C from H and two psi1
evaluations: about 12nk^2 + O(k^3 z) per mode, against the 110nk^2/3 of the
paper's itemized update.  Passing a flop ledger selects the itemized update
instead, the instrumented path whose every line the audit checks.

Representatives are stored as a row permutation plus the leading-column
blocks (g11, g21) of the permuted factor; the metric is invariant under left
multiplication by orthogonal matrices, so all per-mode work happens in the
permuted frame and results are scattered back.
"""

from dataclasses import dataclass

import numpy as np

from .dense import perm_inverse, is_permutation, select_submatrix
from .psi import ScalingPlan, mexp_small, psi1, make_scaling_plan

INVERTIBILITY_TOL = 1e-12
REPIVOT_TOL = 1e-10


# ---------------------------------------------------------------------------
# group and algebra elements

@dataclass(frozen=True, eq=False)
class GroupElement:
    """d-tuple of square invertible matrices."""
    factors: tuple

    def __init__(self, factors, check=True):
        factors = tuple(np.asarray(f, dtype=float) for f in factors)
        for i, f in enumerate(factors):
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise ValueError(f"factor {i} is not square")
            if check:
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


def gl_exp(g, x, t=1.0):
    """Geodesic of the right-invariant metric through g with velocity x, at t.

    Dense evaluation, O(n^3) per mode; the low-rank path below is the
    production route for quotient geodesics.
    """
    _check_profile(g, x)
    out = []
    for gi, xi in zip(_factors(g), _factors(x)):
        w = t * np.linalg.solve(gi.T, xi.T).T
        out.append(mexp_small(w - w.T) @ mexp_small(w.T) @ gi)
    # far-time images may condition past the input gate; report them as-is
    return GroupElement(out, check=False)


def adjoint(h, x):
    """Conjugation h_i x_i h_i^-1 per mode."""
    _check_profile(h, x)
    return AlgebraElement(tuple(hi @ xi @ np.linalg.inv(hi)
                                for hi, xi in zip(_factors(h), _factors(x))))


# ---------------------------------------------------------------------------
# compact representatives and block tangents

@dataclass(frozen=True, eq=False)
class ModeBlocks:
    """Leading k columns of one permuted factor: rows perm, blocks g11, g21.

    The ambient factor has first k columns C with C[perm[j]] equal to row j
    of the stacked block [g11; g21]; the trailing columns are an identity
    completion in the permuted frame.  g11 must be invertible.
    """
    perm: np.ndarray
    g11: np.ndarray
    g21: np.ndarray

    def __init__(self, perm, g11, g21, invert_tol=INVERTIBILITY_TOL):
        perm = np.asarray(perm)
        if not is_permutation(perm):
            raise ValueError("perm is not a permutation")
        self._fill(perm, g11, g21, invert_tol)

    @classmethod
    def _from_selection(cls, perm, g11, g21, invert_tol):
        """Blocks on a permutation ``select_submatrix`` has just built.

        Such a permutation needs no sort-based check; every other check,
        the singularity gate on g11 included, still runs.
        """
        blocks = object.__new__(cls)
        blocks._fill(perm, g11, g21, invert_tol)
        return blocks

    def _fill(self, perm, g11, g21, invert_tol):
        g11 = np.asarray(g11, dtype=float)
        g21 = np.asarray(g21, dtype=float)
        k = g11.shape[0]
        if g11.ndim != 2 or g11.shape != (k, k):
            raise ValueError("g11 is not square")
        if g21.shape != (len(perm) - k, k):
            raise ValueError("g21 has inconsistent shape")
        s = np.linalg.svd(g11, compute_uv=False)
        if not np.all(np.isfinite(s)) or s[-1] <= invert_tol * s[0] or s[-1] == 0.0:
            raise ValueError("g11 is numerically singular")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "g11", g11)
        object.__setattr__(self, "g21", g21)

    @property
    def n(self):
        return len(self.perm)

    @property
    def k(self):
        return self.g11.shape[0]

    def stacked(self):
        return np.vstack([self.g11, self.g21])

    def leading_columns(self):
        """Ambient n x k leading columns (permuted rows scattered back)."""
        c = np.empty((self.n, self.k))
        c[self.perm] = self.stacked()
        return c

    def densify(self):
        """Full ambient factor with identity completion; test paths only."""
        n, k = self.n, self.k
        full = np.zeros((n, n))
        full[:k, :k] = self.g11
        full[k:, :k] = self.g21
        full[k:, k:] = np.eye(n - k)
        return full[perm_inverse(self.perm)]


@dataclass(frozen=True, eq=False)
class HorizontalBlocks:
    """Leading blocks (x11, x21) of a horizontal tangent factor.

    The blocks are the tangent's leading columns X1 in the representative's
    permuted frame, and they fix the tangent: its lift is w = X1 M^-1 G1^T
    with M = G1^T G1, which vanishes on the orthogonal complement of
    span(G1).  The trailing columns follow from the point, so no other
    block is stored.
    """
    x11: np.ndarray
    x21: np.ndarray

    def __init__(self, x11, x21):
        x11 = np.asarray(x11, dtype=float)
        x21 = np.asarray(x21, dtype=float)
        k = x11.shape[0]
        if x11.shape != (k, k) or x21.ndim != 2 or x21.shape[1] != k:
            raise ValueError("inconsistent tangent blocks")
        object.__setattr__(self, "x11", x11)
        object.__setattr__(self, "x21", x21)

    @property
    def k(self):
        return self.x11.shape[0]

    def stacked(self):
        return np.vstack([self.x11, self.x21])

    def scale(self, s):
        return HorizontalBlocks(s * self.x11, s * self.x21)


def reduce_columns(c, tol=REPIVOT_TOL):
    """Representative of an ambient n x k full-rank leading-column matrix.

    ``tol = 0`` accepts any strictly nonsingular leading block; the default
    re-pivot gate rejects blocks past 1e-10 relative conditioning.
    """
    c = np.asarray(c, dtype=float)
    p = select_submatrix(c, tol)
    k = c.shape[1]
    cp = c[p]
    return ModeBlocks._from_selection(p, cp[:k], cp[k:],
                                      min(tol, INVERTIBILITY_TOL))


# ---------------------------------------------------------------------------
# the coupling block Gamma12

def gamma12(blocks, ledger=None):
    """Solve the horizontal coupling relation for the k x (n-k) block.

    Evaluates g11^-1 (1 - W (1 + W)^-1) g11^-T g21^T with the k x k matrix
    W = g11^-T g21^T g21 g11^-1, so no (n-k) x (n-k) inverse is formed.
    g11 is factorized once; its inverse reaches the n-row block by a matmul.
    The recorded cost is 20nk^2/3 + 22k^3/3.
    """
    n, k = blocks.n, blocks.k
    g11, g21 = blocks.g11, blocks.g21
    eye = np.eye(k)
    g11_inv = np.linalg.solve(g11, eye)
    r = g21 @ g11_inv                            # g21 g11^-1
    w = r.T @ r
    s = np.linalg.solve(eye + w, eye)
    ws = w @ s
    left = g11_inv @ (eye - ws)
    out = left @ r.T
    if ledger is not None:
        ledger.div(n, k, k)
        ledger.mult(k, n, k)
        ledger.div(k, k, k)
        ledger.mult(k, k, k)
        ledger.div(k, k, k)
        ledger.mult(k, k, n)
    return out


# ---------------------------------------------------------------------------
# the low-rank geodesic update of one mode
#
# An n-row matrix of the permuted frame is held as the pair (leading k rows,
# trailing n-k rows), the split of the representative itself.

def _tdot(x, y):
    """x^T y for two split n-row matrices."""
    return x[0].T @ y[0] + x[1].T @ y[1]


def _gram(blocks, tangent):
    """Q = [G1, X1], split, and its 2k x 2k Gram H = Q^T Q."""
    q = (np.hstack((blocks.g11, tangent.x11)),
         np.hstack((blocks.g21, tangent.x21)))
    return q, _tdot(q, q)


def _velocity_cores(h, t):
    """M^-1, S, BA and B'A' of the lift t X g^-1 = A B from the Gram H.

    For a horizontal tangent B^T = G1 M^-1 in the permuted frame, with
    M = G1^T G1, so BA = M^-1 S with S = t G1^T X1, B B^T = M^-1 and
    A^T A = t^2 X1^T X1: every k x k core is a block of H.
    """
    k = h.shape[0] // 2
    m_inv = np.linalg.solve(h[:k, :k], np.eye(k))
    s = t * h[:k, k:]
    ba = m_inv @ s
    bpap = np.empty((2 * k, 2 * k))
    bpap[:k, :k] = ba
    bpap[:k, k:] = -m_inv
    bpap[k:, :k] = (t * t) * h[k:, k:]
    bpap[k:, k:] = -ba.T
    return m_inv, s, ba, bpap


def _shared_plan(ba, bpap):
    """One scaling plan for both psi1 evaluations: the larger exponent."""
    norms = np.linalg.norm(ba), np.linalg.norm(bpap)
    return ScalingPlan(max(make_scaling_plan(v).z for v in norms), max(norms))


def lowrank_geodesic_step(blocks, tangent, t=1.0, ledger=None, label="",
                          repivot_tol=REPIVOT_TOL):
    """New representative of the leading k columns of exp_g(tX) for one mode.

    Works entirely with n x k and smaller intermediates.  Without a ledger
    this is the Gram form: with Q = [G1, X1] (n x 2k) and H = Q^T Q, the
    new leading columns are Q C for a 2k x k matrix C built from H and the
    two psi1 evaluations alone,

        W = I + M^-1 psi1(BA)^T S^T,   U = psi1(B'A') [W; S^T W],
        C = [W - M^-1 U_2;  t U_1],

    one Gram and one n x 2k by 2k x k product, about 12nk^2 + O(k^3 z).
    With a ledger the paper-itemized update runs instead, and its recorded
    counts follow the published per-step itemization (110nk^2/3 leading).
    Both psi1 evaluations share one scaling exponent, the larger of the two
    plans, so the mode has a single z, the same on either path.

    Returns (new ModeBlocks, z).
    """
    n, k = blocks.n, blocks.k
    if tangent.k != k or tangent.x21.shape[0] != n - k:
        raise ValueError("tangent blocks do not match the representative")
    if ledger is not None:
        return _itemized_step(blocks, tangent, t, ledger, label, repivot_tol)
    q, h = _gram(blocks, tangent)
    m_inv, s, ba, bpap = _velocity_cores(h, t)
    plan = _shared_plan(ba, bpap)
    p = psi1(ba, None, plan)
    pp = psi1(bpap, None, plan)
    w = np.eye(k) + m_inv @ (p.T @ s.T)
    u = pp @ np.vstack((w, s.T @ w))
    c = np.vstack((w - m_inv @ u[k:], t * u[:k]))
    # column-major, so the re-pivot's transposed copy is a contiguous one
    ambient = np.empty((n, k), order="F")
    ambient[blocks.perm[:k]] = q[0] @ c
    ambient[blocks.perm[k:]] = q[1] @ c
    del q  # the re-pivot runs without Q's n x 2k copy alive
    return reduce_columns(ambient, repivot_tol), plan.z


def mode_velocity_norms(blocks, tangent, t=1.0):
    """Frobenius norms of (BA, B'A') for one mode at time t."""
    _, _, ba, bpap = _velocity_cores(_gram(blocks, tangent)[1], t)
    return float(np.linalg.norm(ba)), float(np.linalg.norm(bpap))


# ---------------------------------------------------------------------------
# the paper-itemized update, the instrumented path of the flop audit

def _tangent_factors(blocks, gam, tangent, t, ledger):
    """Rank-k factors A, B with t X g^-1 = A B in the permuted frame.

    A = t [x11; x21] is free; B = [(1 - gamma12 g21) g11^-1, gamma12] costs
    2nk^2 + 8k^3/3.  Returns A and B^T, both split.
    """
    n, k = blocks.n, blocks.k
    u = gam @ blocks.g21
    first = np.linalg.solve(blocks.g11.T, (np.eye(k) - u).T).T
    ledger.mult(k, n, k)
    ledger.div(k, k, k)
    return (t * tangent.x11, t * tangent.x21), (first.T, gam.T)


def _bpap(a, bt, ba):
    """B'A' = [B; A^T] [A, -B^T] = [BA, -BB^T; A^TA, -(BA)^T]."""
    k = ba.shape[0]
    out = np.empty((2 * k, 2 * k))
    out[:k, :k] = ba
    out[:k, k:] = _tdot(bt, bt)
    out[k:, :k] = _tdot(a, a)
    out[k:, k:] = ba.T
    out[:, k:] *= -1.0
    return out


def _ap_mul(a, bt, x):
    """A' x = A x_1 - B^T x_2 for a 2k-row x, split."""
    k = x.shape[0] // 2
    return tuple(ai @ x[:k] - bi @ x[k:] for ai, bi in zip(a, bt))


def _itemized_step(blocks, tangent, t, led, label, repivot_tol):
    """The update term by term, each n-row product charged to its label.

    The four column terms are assembled in the composition order of the
    geodesic formula (skew factor applied last); the recorded counts follow
    the published per-step itemization, whose cross term assumes the
    reversed order and charges 6nk^2 + 6k^3.  The coupling block of the
    point is computed here, so the recorded count covers the whole update.
    """
    n, k = blocks.n, blocks.k
    with led.step(label + "gamma12"):
        gam = gamma12(blocks, led)
    with led.step(label + "build_B"):
        a, bt = _tangent_factors(blocks, gam, tangent, t, led)

    with led.step(label + "BA"):
        ba = _tdot(bt, a)
        led.mult(k, n, k)
    with led.step(label + "BpAp"):
        bpap = _bpap(a, bt, ba)
        led.mult(2 * k, n, 2 * k)

    plan = _shared_plan(ba, bpap)
    with led.step(label + "psi1_BA"):
        p = psi1(ba, led, plan)
    with led.step(label + "psi1_BpAp"):
        pp = psi1(bpap, led, plan)

    g1 = (blocks.g11, blocks.g21)
    with led.step(label + "term2"):
        atg = _tdot(a, g1)
        y = p.T @ atg
        term2 = (bt[0] @ y, bt[1] @ y)
        led.mult(k, n, k)
        led.mult(k, k, k)
        led.mult(n, k, k)
    with led.step(label + "term3"):
        term3 = _ap_mul(a, bt, pp @ np.concatenate((_tdot(bt, g1), atg)))
        led.mult(2 * k, n, k)
        led.mult(2 * k, 2 * k, k)
        led.mult(n, 2 * k, k)
    with led.step(label + "term4"):
        bpt2 = np.concatenate((_tdot(bt, term2), _tdot(a, term2)))
        term4 = _ap_mul(a, bt, pp @ bpt2)
        led.mult(n, k, 2 * k)
        led.mult(k, 2 * k, k)
        led.mult(k, k, k)
        led.mult(n, k, k)
    ambient = np.empty((n, k))
    for part, rows in enumerate((blocks.perm[:k], blocks.perm[k:])):
        ambient[rows] = g1[part] + term2[part] + term3[part] + term4[part]
    led.add(n, k)
    led.add(n, k)
    led.add(n, k)

    out = reduce_columns(ambient, repivot_tol)
    led.aux_work(n * k * k)  # row-selection sweep, outside the model
    return out, plan.z
