import numpy as np
import pytest

import tensorgeo.io as tio
from tensorgeo import (CpShape, TtShape, TuckerShape, cp_random_horizontal,
                       cp_random_point, embed, tt_random_point,
                       tucker_random_point)


def test_fmt_bytes_match_the_per_value_format():
    rng = np.random.default_rng(21)
    values = np.concatenate((
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.797e308, -1.797e308],
        np.arange(-3.0, 4.0), [2.0 ** 53, 1e16, 123456789.0],
        rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-300, 300, 1000)))
    want = " ".join(f"{float(v):.17g}" for v in values)
    assert tio._fmt(values) == want
    assert tio._fmt(values[:1]) == want.split()[0]
    assert tio._fmt(values[:0]) == ""


def test_tensor_roundtrip_exact():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 2))
    back = tio.load_tensor(tio.dump_tensor(t))
    assert np.array_equal(back, t)   # 17 significant digits are lossless


def test_matrix_roundtrip_and_shape_guard():
    # a matrix is the 2-d case of the tensor format; the shape header is
    # kept, so a 3-d dump never comes back as a matrix
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 3))
    back = tio.load_tensor(tio.dump_tensor(m))
    assert back.shape == (4, 3) and np.array_equal(back, m)
    assert tio.load_tensor(tio.dump_tensor(np.zeros((2, 2, 2)))).ndim == 3
    with pytest.raises(tio.FormatError):
        tio.load_tensor("shape: 4 3\ndata: " + tio._fmt(m.ravel()[:-1]) + "\n")


def test_tensor_parse_errors_carry_line_numbers():
    with pytest.raises(tio.FormatError) as exc:
        tio.load_tensor("shape: 2 2\ndata: 1 2 3\n")
    assert exc.value.line is not None
    with pytest.raises(tio.FormatError):
        tio.load_tensor("data: 1 2\n")
    with pytest.raises(tio.FormatError):
        tio.load_tensor("shape: 2 two\ndata: 1 2\n")


@pytest.mark.parametrize("kind", ["cp", "tucker", "tt"])
def test_point_roundtrip(kind, tmp_path):
    rng = np.random.default_rng(2)
    if kind == "cp":
        p = cp_random_point(CpShape((5, 4, 4), 2), rng)
    elif kind == "tucker":
        p = tucker_random_point(TuckerShape((5, 3, 3), (4, 2, 2)), rng)
    else:
        p = tt_random_point(TtShape((4, 6, 4), (2, 2)), rng)
    path = tmp_path / "point.txt"
    tio.save_point(path, p)
    q = tio.read_point(path)
    assert q.shape == p.shape
    for a, b in zip(q.modes, p.modes):
        assert np.array_equal(a.perm, b.perm)
        assert np.array_equal(a.g11, b.g11)
        assert np.array_equal(a.g21, b.g21)
    assert np.array_equal(embed(q), embed(p))


def test_point_file_is_one_based(tmp_path):
    rng = np.random.default_rng(3)
    p = cp_random_point(CpShape((4, 4, 4), 2), rng)
    text = tio.dump_point(p)
    perm_line = next(l for l in text.splitlines() if l.startswith("perm:"))
    entries = [int(v) for v in perm_line.split()[1:]]
    assert min(entries) == 1 and max(entries) == 4


def test_tangent_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    p = cp_random_point(CpShape((5, 4, 4), 2), rng)
    x = cp_random_horizontal(p, rng)
    path = tmp_path / "tan.txt"
    tio.save_tangent(path, p, x)
    y = tio.read_tangent(path, p)
    for a, b in zip(y.modes, x.modes):
        assert np.array_equal(a, b)


def test_point_header_mismatches():
    rng = np.random.default_rng(5)
    p = cp_random_point(CpShape((4, 4, 4), 2), rng)
    text = tio.dump_point(p)
    with pytest.raises(tio.FormatError):
        tio.load_point(text.replace("manifold: cp", "manifold: cpd"))
    with pytest.raises(tio.FormatError):
        tio.load_point(text.replace("k: 2", "k: 3", 1))
    other = cp_random_point(CpShape((4, 4, 3), 2), rng)
    with pytest.raises(tio.FormatError):
        tio.load_tangent(tio.dump_tangent(p, cp_random_horizontal(p, rng)),
                         other)


@pytest.mark.parametrize("old, new, match", [
    ("ranks: 2", "ranks: 9", r"rank must satisfy 1 <= r <= min\(dims\)"),
    ("dims: 5 4 4", "dims: 5 4", "at least three modes are required"),
    ("ranks: 2", "ranks: 2 2", "cp shapes take a single rank"),
    ("dims: 5 4 4", "dims: 6 4 4",
     "mode 1: blocks are 5 x 2, the shape wants 6 x 2"),
    ("dims: 5 4 4", "dims: 5 4 5",
     "mode 3: blocks are 4 x 2, the shape wants 5 x 2"),
], ids=["rank", "dims", "cp-ranks", "rows", "last-rows"])
def test_point_header_errors_are_format_errors(old, new, match):
    # a shape the header cannot make, and blocks the header disagrees with,
    # are reported as FormatError with a line number and 1-based modes
    rng = np.random.default_rng(7)
    text = tio.dump_point(cp_random_point(CpShape((5, 4, 4), 2), rng))
    assert old in text
    with pytest.raises(tio.FormatError, match=match) as exc:
        tio.load_point(text.replace(old, new, 1))
    assert exc.value.line is not None


def test_tt_header_error_names_the_mode_one_based():
    rng = np.random.default_rng(8)
    text = tio.dump_point(tt_random_point(TtShape((6, 8, 5), (2, 2)), rng))
    with pytest.raises(tio.FormatError,
                       match=r"mode 2: rank product 4 exceeds size 3 \(line 3\)"):
        tio.load_point(text.replace("dims: 6 8 5", "dims: 6 3 5", 1))


@pytest.mark.parametrize("old, new, match", [
    ("mode: 2", "mode: 7", "expected mode 2"),
    ("k: 2", "k: 9", "mode 1: k = 9 conflicts"),
    ("x11:\nshape: 2 2", "x11:\nshape: 4", r"mode 1: x11 has shape \(4,\)"),
    ("x21:\nshape: 3 2", "x21:\nshape: 2 3", r"mode 1: x21 has shape \(2, 3\)"),
], ids=["mode", "k", "x11", "x21"])
def test_tangent_sections_checked_against_the_point(old, new, match):
    rng = np.random.default_rng(6)
    p = cp_random_point(CpShape((5, 4, 4), 2), rng)
    text = tio.dump_tangent(p, cp_random_horizontal(p, rng))
    assert old in text
    with pytest.raises(tio.FormatError, match=match):
        tio.load_tangent(text.replace(old, new, 1), p)
