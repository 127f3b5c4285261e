import numpy as np
import pytest

import tensorgeo.homogeneous as hq
from conftest import rel_err
from tensorgeo import (CpShape, cp_geodesic, cp_point_from_factors,
                       cp_random_horizontal, cp_random_point, mode_apply,
                       multilinear_rank)
from tensorgeo.group import AlgebraElement
from tensorgeo.oracles import contract_cp, mexp_dense, vertical_basis


def test_shape_validation():
    with pytest.raises(ValueError):
        CpShape((4, 4), 2)          # d < 3
    with pytest.raises(ValueError):
        CpShape((4, 1, 4), 2)       # mode too small
    with pytest.raises(ValueError):
        CpShape((4, 4, 3), 4)       # rank above a mode size


def test_reference_tensor():
    shape = CpShape((3, 4, 5), 1)
    t = shape.reference_tensor()
    assert t[0, 0, 0] == 1.0 and np.sum(t != 0) == 1
    shape = CpShape((2, 2, 2), 2)
    t = shape.reference_tensor()
    want = np.zeros((2, 2, 2))
    want[0, 0, 0] = want[1, 1, 1] = 1.0
    assert np.array_equal(t, want)
    assert multilinear_rank(t) == (2, 2, 2)


def test_point_from_factors_identity():
    shape = CpShape((4, 4, 4), 2)
    factors = [np.eye(4)[:, :2]] * 3
    p = cp_point_from_factors(factors)
    assert np.array_equal(hq.embed(p), shape.reference_tensor())


def test_point_from_factors_random():
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal((4, 2)) + 2 * np.eye(4)[:, :2]
               for _ in range(3)]
    p = cp_point_from_factors(factors)
    assert rel_err(hq.embed(p), contract_cp(factors)) <= 1e-12
    # the Khatri-Rao embedding for d = 2..5, distinct mode sizes so that a
    # transposed mode order shows; CpShape needs three modes, so the
    # two-mode case calls the embedding on its columns alone
    for d in (2, 3, 4, 5):
        factors = [rng.standard_normal((n, 3)) + 2 * np.eye(n)[:, :3]
                   for n in (4, 3, 5, 6, 3)[:d]]
        if d == 2:
            emb = CpShape((3, 3, 3), 3).embed_columns(factors)
        else:
            emb = hq.embed(cp_point_from_factors(factors))
        assert emb.shape == tuple(f.shape[0] for f in factors)
        assert rel_err(emb, contract_cp(factors)) <= 1e-12


def test_point_from_factors_dependent_columns():
    v = np.ones((4, 2))
    with pytest.raises(ValueError):
        cp_point_from_factors([v, np.eye(4)[:, :2], np.eye(4)[:, :2]])


def test_embed_reference_point_and_rank():
    rng = np.random.default_rng(1)
    shape = CpShape((6, 5, 4), 2)
    p = cp_random_point(shape, rng)
    assert multilinear_rank(hq.embed(p)) == (2, 2, 2)
    # singular-value gap at the rank cut
    from tensorgeo.dense import unfold
    for i in range(3):
        s = np.linalg.svd(unfold(hq.embed(p), i), compute_uv=False)
        assert s[1] / s[2] >= 1e6
    # the random points' columns have singular values in [0.7, 1.4]
    for n, k in [(6, 2), (40, 5), (4, 4)]:
        s = np.linalg.svd(hq.random_columns(n, k, rng), compute_uv=False)
        assert s.shape == (k,)
        assert 0.7 * (1 - 1e-12) <= s[-1] and s[0] <= 1.4 * (1 + 1e-12)


def test_stabilizer_explicit_cases():
    shape = CpShape((4, 4, 4), 2)
    ref = shape.reference_tensor()
    free = ((np.zeros((2, 2)),) * 3, (np.eye(2),) * 3)
    # identity element
    s = hq.StabilizerSample((np.eye(2),) * 3, *free)
    assert np.array_equal(mode_apply(s.group_element(), ref), ref)
    # compensating diagonals with product one
    s = hq.StabilizerSample((np.diag([2.0, 4.0]), np.diag([0.5, 0.25]),
                             np.eye(2)), *free)
    assert np.abs(mode_apply(s.group_element(), ref) - ref).max() == 0.0
    # sampled leading blocks diag(d_i) Q: one permutation Q for every mode,
    # and the diagonals' product is exactly one
    shape = CpShape((5, 4, 4, 3), 3)
    rows = np.arange(3)
    for seed in range(10):
        s = shape.stabilizer_sample(np.random.default_rng(seed))
        assert type(s) is hq.StabilizerSample
        q = np.argmax(s.leading[0] != 0, axis=1)
        assert sorted(q) == [0, 1, 2]
        diags = []
        for ul in s.leading:
            assert np.count_nonzero(ul) == 3
            assert np.array_equal(np.argmax(ul != 0, axis=1), q)
            diags.append(ul[rows, q])
        assert np.array_equal(np.prod(diags, axis=0), np.ones(3))


def test_vertical_basis_count_and_fd():
    rng = np.random.default_rng(3)
    shape = CpShape((4, 4, 3), 2)
    p = cp_random_point(shape, rng)
    basis = vertical_basis(p)
    d, r = 3, 2
    want = sum(n * n for n in shape.dims) - sum(shape.dims) * r + (d - 1) * r
    assert len(basis) == want
    # the orbit map is constant along every vertical direction
    g = hq.densify(p)
    emb = hq.embed(p)
    h = 1e-6
    for v in basis[::7]:
        plus = [gf + h * vf for gf, vf in zip(g.factors, v.factors)]
        minus = [gf - h * vf for gf, vf in zip(g.factors, v.factors)]
        fd = (shape.embed_columns([f[:, :r] for f in plus])
              - shape.embed_columns([f[:, :r] for f in minus])) / (2 * h)
        scale = np.linalg.norm(emb) * (1 + v.norm())
        assert np.linalg.norm(fd) <= 1e-6 * scale


def test_projection_properties():
    rng = np.random.default_rng(4)
    shape = CpShape((5, 4, 4), 2)
    p = cp_random_point(shape, rng)
    # a vertical input projects to (numerically) zero
    g = hq.densify(p)
    basis = vertical_basis(p)
    v = basis[3]
    tangent = hq.project_horizontal(p, v)
    assert tangent.norm() <= 1e-10 * (1 + v.norm())
    # idempotence: a horizontal input is reproduced
    x = cp_random_horizontal(p, rng)
    xa = hq.lift_tangent(p, x)
    again = hq.project_horizontal(p, xa)
    for a, b in zip(again.modes, x.modes):
        assert np.abs(a - b).max() <= 1e-10 * (1 + x.norm())
    # residual of a generic projection is spanned by the vertical basis
    z = AlgebraElement([rng.standard_normal((n, n)) for n in shape.dims])
    t = hq.project_horizontal(p, z)
    resid = np.concatenate([
        (zf - xf).ravel()
        for zf, xf in zip(z.factors, hq.lift_tangent(p, t).factors)])
    vmat = np.stack([np.concatenate([f.ravel() for f in vb.factors])
                     for vb in basis])
    coef, *_ = np.linalg.lstsq(vmat.T, resid, rcond=None)
    assert np.linalg.norm(vmat.T @ coef - resid) <= 1e-10 * np.linalg.norm(resid)


def test_projection_closed_form_at_reference():
    # at the identity representative the horizontal blocks are the input's
    # leading blocks with the cross-mode diagonal mean removed
    shape = CpShape((4, 4, 4), 2)
    p = cp_point_from_factors([np.eye(4)[:, :2]] * 3)
    rng = np.random.default_rng(5)
    z = AlgebraElement([rng.standard_normal((4, 4)) for _ in range(3)])
    t = hq.project_horizontal(p, z)
    diag_mean = np.mean([np.diag(f[:2, :2]) for f in z.factors], axis=0)
    for x1, zf in zip(t.modes, z.factors):
        want11 = zf[:2, :2].copy()
        want11[np.arange(2), np.arange(2)] = diag_mean
        assert np.abs(x1[:2] - want11).max() <= 1e-10
        assert np.abs(x1[2:] - zf[2:, :2]).max() <= 1e-10


def test_is_horizontal():
    rng = np.random.default_rng(6)
    shape = CpShape((5, 4, 4), 2)
    p = cp_random_point(shape, rng)
    x = cp_random_horizontal(p, rng)
    assert hq.horizontality_residual(p, x) <= 1e-9
    # breaking the cross-mode diagonal condition
    bump = list(x.modes)
    bump[0] = np.vstack((bump[0][:2] + 1e-2 * np.eye(2), bump[0][2:]))
    assert hq.horizontality_residual(p, type(x)(bump)) > 1e-6


def test_is_horizontal_identity_reduces_to_equal_diagonals():
    shape = CpShape((4, 4, 4), 2)
    p = cp_point_from_factors([np.eye(4)[:, :2]] * 3)
    rng = np.random.default_rng(7)
    x11 = rng.standard_normal((2, 2))
    modes = [np.vstack((x11, rng.standard_normal((2, 2)))) for _ in range(3)]
    assert hq.horizontality_residual(p, hq.ManifoldTangent(modes)) <= 1e-12
    modes[1] = np.vstack((x11 + np.diag([1e-3, 0]), modes[1][2:]))
    assert hq.horizontality_residual(p, hq.ManifoldTangent(modes)) > 1e-6


def test_geodesic_initial_velocity_fd():
    rng = np.random.default_rng(9)
    shape = CpShape((6, 5, 4), 2)
    p = cp_random_point(shape, rng)
    x = cp_random_horizontal(p, rng)
    g = hq.densify(p)
    xa = hq.lift_tangent(p, x)
    h = 1e-6
    fd_geo = (hq.embed(cp_geodesic(p, x, h))
              - hq.embed(cp_geodesic(p, x, -h))) / (2 * h)
    plus = [gf + h * xf for gf, xf in zip(g.factors, xa.factors)]
    minus = [gf - h * xf for gf, xf in zip(g.factors, xa.factors)]
    r = shape.r
    fd_push = (shape.embed_columns([f[:, :r] for f in plus])
               - shape.embed_columns([f[:, :r] for f in minus])) / (2 * h)
    assert np.linalg.norm(fd_geo - fd_push) <= 1e-5 * (1 + np.linalg.norm(fd_push))


def test_geodesic_far_time_finite():
    rng = np.random.default_rng(10)
    shape = CpShape((6, 5, 4), 2)
    p = cp_random_point(shape, rng)
    x = cp_random_horizontal(p, rng)
    q, _ = hq.geodesic(p, x, 50.0, repivot_tol=0.0)
    for mb in q.modes:
        assert np.all(np.isfinite(mb.g1))
        assert np.linalg.svd(mb.g11, compute_uv=False)[-1] > 0.0


def test_manifold_dimension_bookkeeping():
    shape = CpShape((6, 5, 4), 3)
    d, r = 3, 3
    per_mode_parameters = sum(r * r + (n - r) * r for n in shape.dims)
    cross_mode_constraints = (d - 1) * r
    assert (per_mode_parameters - cross_mode_constraints
            == shape.manifold_dimension())
    assert shape.manifold_dimension() == sum(shape.dims) * r - (d - 1) * r


def test_geodesic_composition_with_relifted_velocity():
    # two half steps equal one full step once the velocity is transported to
    # the intermediate representative and re-lifted there
    rng = np.random.default_rng(13)
    shape = CpShape((6, 5, 4), 2)
    p = cp_random_point(shape, rng)
    x = cp_random_horizontal(p, rng).scale(0.6)
    full = hq.embed(cp_geodesic(p, x, 1.0))

    q = cp_geodesic(p, x, 0.5)
    g = hq.densify(p)
    xa = hq.lift_tangent(p, x)
    # analytic velocity of the dense path at t = 1/2, then translate it onto
    # the reduced representative (they differ by a stabilizer element)
    vel = []
    gam_half = []
    for gf, xf in zip(g.factors, xa.factors):
        w = xf @ np.linalg.inv(gf)
        skew, sym = w - w.T, w.T
        e1, e2 = mexp_dense(0.5 * skew), mexp_dense(0.5 * sym)
        gam_half.append(e1 @ e2 @ gf)
        vel.append(skew @ e1 @ e2 @ gf + e1 @ sym @ e2 @ gf)
    qd = hq.densify(q)
    hs = [np.linalg.solve(gh, qf) for gh, qf in zip(gam_half, qd.factors)]
    vel_t = [v @ h for v, h in zip(vel, hs)]
    x2 = hq.project_horizontal(q, AlgebraElement(vel_t))
    twice = hq.embed(cp_geodesic(q, x2, 0.5))
    assert rel_err(twice, full) <= 1e-8
