"""Right-invariant geometry of GL(n_1) x ... x GL(n_d).

The metric is the Euclidean inner product on the algebra translated to a
right-invariant metric on the group.  Its geodesics through g with initial
velocity X factor per mode as

    exp_g(X) = mexp(w - w^T) mexp(w^T) g,      w = X g^-1,

which is complete for all times.  For horizontal velocities of the quotient
constructions, w has rank k per mode and the update of the leading k columns
is computed without ever forming an n x n matrix.

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
        g11 = np.asarray(g11, dtype=float)
        g21 = np.asarray(g21, dtype=float)
        if not is_permutation(perm):
            raise ValueError("perm is not a permutation")
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
    """Blocks of a horizontal tangent factor in the representative's frame.

    The permuted tangent factor is [x11, x11 @ gamma12; x21, x21 @ gamma12];
    the trailing columns are determined, so only the leading blocks and the
    cached coupling block are stored.
    """
    x11: np.ndarray
    x21: np.ndarray
    gamma12: np.ndarray

    def __init__(self, x11, x21, gamma12):
        x11 = np.asarray(x11, dtype=float)
        x21 = np.asarray(x21, dtype=float)
        gamma12 = np.asarray(gamma12, dtype=float)
        k = x11.shape[0]
        if x11.shape != (k, k) or x21.ndim != 2 or x21.shape[1] != k:
            raise ValueError("inconsistent tangent blocks")
        if gamma12.shape != (k, x21.shape[0]):
            raise ValueError("gamma12 shape does not match the blocks")
        object.__setattr__(self, "x11", x11)
        object.__setattr__(self, "x21", x21)
        object.__setattr__(self, "gamma12", gamma12)

    @property
    def k(self):
        return self.x11.shape[0]

    def stacked(self):
        return np.vstack([self.x11, self.x21])

    def densify_permuted(self):
        lead = self.stacked()
        return np.hstack([lead, lead @ self.gamma12])

    def scale(self, s):
        return HorizontalBlocks(s * self.x11, s * self.x21, self.gamma12)


def reduce_columns(c, tol=REPIVOT_TOL):
    """Representative of an ambient n x k full-rank leading-column matrix.

    ``tol = 0`` accepts any strictly nonsingular leading block; the default
    re-pivot gate rejects blocks past 1e-10 relative conditioning.
    """
    c = np.asarray(c, dtype=float)
    p = select_submatrix(c, tol)
    k = c.shape[1]
    cp = c[p]
    return ModeBlocks(p, cp[:k], cp[k:], invert_tol=min(tol, INVERTIBILITY_TOL))


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
# trailing n-k rows), the split of the representative itself, so that no
# n-row block is ever copied into a stacked array.

def _tdot(x, y):
    """x^T y for two split n-row matrices."""
    return x[0].T @ y[0] + x[1].T @ y[1]


def _tangent_factors(blocks, gam, tangent, t=1.0, ledger=None):
    """Rank-k factors A, B with t X g^-1 = A B in the permuted frame.

    A = t [x11; x21] is free; B = [(1 - gamma12 g21) g11^-1, gamma12] costs
    2nk^2 + 8k^3/3.  Returns A and B^T, both split.
    """
    n, k = blocks.n, blocks.k
    u = gam @ blocks.g21
    first = np.linalg.solve(blocks.g11.T, (np.eye(k) - u).T).T
    if ledger is not None:
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


def lowrank_geodesic_step(blocks, tangent, t=1.0, ledger=None, label="",
                          repivot_tol=REPIVOT_TOL):
    """New representative of the leading k columns of exp_g(tX) for one mode.

    Works entirely with n x k and smaller intermediates.  The four column
    terms are assembled in the composition order of the geodesic formula
    (skew factor applied last); the recorded counts follow the published
    per-step itemization, whose cross term assumes the reversed order and
    charges 6nk^2 + 6k^3.  Both psi1 evaluations share one scaling exponent,
    the larger of the two plans, so the mode has a single z.

    Returns (new ModeBlocks, z).  The coupling block is recomputed here so
    the recorded count covers the whole update; the tangent's cached block
    is ignored.
    """
    n, k = blocks.n, blocks.k
    if tangent.k != k or tangent.gamma12.shape[1] != n - k:
        raise ValueError("tangent blocks do not match the representative")
    led = ledger
    with _scope(led, label + "gamma12"):
        gam = gamma12(blocks, led)
    with _scope(led, label + "build_B"):
        a, bt = _tangent_factors(blocks, gam, tangent, t, led)

    with _scope(led, label + "BA"):
        ba = _tdot(bt, a)
        if led is not None:
            led.mult(k, n, k)
    with _scope(led, label + "BpAp"):
        bpap = _bpap(a, bt, ba)
        if led is not None:
            led.mult(2 * k, n, 2 * k)

    norms = np.linalg.norm(ba), np.linalg.norm(bpap)
    plan = ScalingPlan(max(make_scaling_plan(v).z for v in norms), max(norms))
    with _scope(led, label + "psi1_BA"):
        p = psi1(ba, led, plan)
    with _scope(led, label + "psi1_BpAp"):
        pp = psi1(bpap, led, plan)

    g1 = (blocks.g11, blocks.g21)
    with _scope(led, label + "term2"):
        atg = _tdot(a, g1)
        y = p.T @ atg
        term2 = (bt[0] @ y, bt[1] @ y)
        if led is not None:
            led.mult(k, n, k)
            led.mult(k, k, k)
            led.mult(n, k, k)
    with _scope(led, label + "term3"):
        term3 = _ap_mul(a, bt, pp @ np.concatenate((_tdot(bt, g1), atg)))
        if led is not None:
            led.mult(2 * k, n, k)
            led.mult(2 * k, 2 * k, k)
            led.mult(n, 2 * k, k)
    with _scope(led, label + "term4"):
        bpt2 = np.concatenate((_tdot(bt, term2), _tdot(a, term2)))
        term4 = _ap_mul(a, bt, pp @ bpt2)
        if led is not None:
            led.mult(n, k, 2 * k)
            led.mult(k, 2 * k, k)
            led.mult(k, k, k)
            led.mult(n, k, k)
    ambient = np.empty((n, k))
    for part, rows in enumerate((blocks.perm[:k], blocks.perm[k:])):
        ambient[rows] = g1[part] + term2[part] + term3[part] + term4[part]
    if led is not None:
        led.add(n, k)
        led.add(n, k)
        led.add(n, k)

    out = reduce_columns(ambient, repivot_tol)
    if led is not None:
        led.aux_work(n * k * k)  # row-selection sweep, outside the model
    return out, plan.z


def mode_velocity_norms(blocks, tangent, t=1.0):
    """Frobenius norms of (BA, B'A') for one mode at time t."""
    a, bt = _tangent_factors(blocks, gamma12(blocks), tangent, t)
    ba = _tdot(bt, a)
    return float(np.linalg.norm(ba)), float(np.linalg.norm(_bpap(a, bt, ba)))


class _scope:
    """Step-label scope that tolerates a missing ledger."""

    def __init__(self, ledger, name):
        self.cm = ledger.step(name) if ledger is not None else None

    def __enter__(self):
        if self.cm is not None:
            self.cm.__enter__()

    def __exit__(self, *exc):
        if self.cm is not None:
            self.cm.__exit__(*exc)
        return False
