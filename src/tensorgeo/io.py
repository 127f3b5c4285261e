"""Plain-text serialization of tensors, points, and tangents.

A tensor document holds a ``shape:`` line of integers followed by a
``data:`` line of decimal doubles printed with 17 significant digits,
row-major; a matrix is the 2-d case, with no document type of its own.
Point and tangent documents list one block section per mode, each block a
2-d tensor document: a point mode's ``g11``/``g21`` and a tangent mode's
``x11``/``x21`` are the first k and last n-k rows of its n x k array.
Permutations and the human-facing mode numbers are written 1-based.

Parsers raise :class:`FormatError` with the offending line number so
callers can report locations; a header the shape rejects, and blocks that
disagree with the header, are format errors too.
"""

import re

import numpy as np

from .group import ModeBlocks
from .homogeneous import ManifoldTangent, Point, make_shape


class FormatError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


def _fmt(values):
    """Space-separated 17-significant-digit text of a float array."""
    v = values.tolist()
    return ("%.17g " * len(v) % tuple(v))[:-1]


def _format_error(exc, line):
    """FormatError from a library ValueError, its mode numbers made 1-based."""
    text = re.sub(r"\bmode (\d+)", lambda m: f"mode {int(m[1]) + 1}",
                  str(exc))
    return FormatError(text, line)


class _Lines:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, expect=None):
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if expect is not None:
                if not line.startswith(expect + ":"):
                    raise FormatError(f"expected '{expect}:', found '{line}'",
                                      self.pos)
                return line[len(expect) + 1:].strip()
            return line
        if expect is not None:
            raise FormatError(f"expected '{expect}:', found end of file",
                              len(self.lines))
        return None

    def parse(self, expect, kind):
        body = self.next(expect)
        try:
            return [kind(tok) for tok in body.split()]
        except ValueError as exc:
            raise FormatError(f"bad {expect} entry: {exc}", self.pos) from None


def dump_tensor(arr):
    arr = np.asarray(arr, dtype=float)
    return (f"shape: {' '.join(str(s) for s in arr.shape)}\n"
            f"data: {_fmt(arr.ravel())}\n")


def _parse_tensor(lines):
    shape = lines.parse("shape", int)
    data = lines.parse("data", float)
    size = int(np.prod(shape)) if shape else 0
    if len(data) != size:
        raise FormatError(f"data holds {len(data)} entries, shape wants {size}",
                          lines.pos)
    arr = np.array(data).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise FormatError("non-finite entry in data", lines.pos)
    return arr


def load_tensor(text):
    return _parse_tensor(_Lines(text))


# ---------------------------------------------------------------------------
# points and tangents

def _shape_header(point):
    shape = point.shape
    ranks = [shape.r] if shape.name == "cp" else list(shape.ranks)
    return (f"manifold: {shape.name}\n"
            f"dims: {' '.join(str(n) for n in shape.dims)}\n"
            f"ranks: {' '.join(str(t) for t in ranks)}\n")


def dump_point(point):
    out = [_shape_header(point)]
    for i, mb in enumerate(point.modes):
        out.append(f"mode: {i + 1}\n")
        out.append(f"k: {mb.k}\n")
        out.append(f"perm: {' '.join(map(str, (mb.perm + 1).tolist()))}\n")
        out.append("g11:\n" + dump_tensor(mb.g11))
        out.append("g21:\n" + dump_tensor(mb.g21))
    return "".join(out)


def _parse_shape_header(lines):
    manifold = lines.next("manifold")
    dims = lines.parse("dims", int)
    ranks = lines.parse("ranks", int)
    try:
        return make_shape(manifold, dims, ranks)
    except ValueError as exc:
        raise _format_error(exc, lines.pos) from None


def _mode_header(lines, i, k):
    """Read the ``mode:`` and ``k:`` lines of mode i, which has k columns."""
    if lines.parse("mode", int) != [i + 1]:
        raise FormatError(f"expected mode {i + 1}", lines.pos)
    got = lines.parse("k", int)
    if got != [k]:
        raise FormatError(f"mode {i + 1}: k = {' '.join(map(str, got))} "
                          f"conflicts with the declared ranks (want {k})",
                          lines.pos)


def _block(lines, name):
    """A named matrix section such as ``g11:`` followed by its document."""
    if lines.next() != name + ":":
        raise FormatError(f"expected '{name}:'", lines.pos)
    return _parse_tensor(lines)


def load_point(text):
    lines = _Lines(text)
    shape = _parse_shape_header(lines)
    modes = []
    for i in range(len(shape.dims)):
        _mode_header(lines, i, shape.ks[i])
        perm = np.array(lines.parse("perm", int)) - 1
        g11 = _block(lines, "g11")
        g21 = _block(lines, "g21")
        try:
            modes.append(ModeBlocks(perm, g11, g21))
        except ValueError as exc:
            raise FormatError(f"mode {i + 1}: {exc}", lines.pos) from None
    try:
        return Point(shape, modes)
    except ValueError as exc:
        raise _format_error(exc, lines.pos) from None


def dump_tangent(point, tangent):
    out = [_shape_header(point)]
    for i, x1 in enumerate(tangent.modes):
        k = x1.shape[1]
        out.append(f"mode: {i + 1}\n")
        out.append(f"k: {k}\n")
        out.append("x11:\n" + dump_tensor(x1[:k]))
        out.append("x21:\n" + dump_tensor(x1[k:]))
    return "".join(out)


def load_tangent(text, point):
    """Tangent blocks against an existing point, checked mode by mode."""
    lines = _Lines(text)
    shape = _parse_shape_header(lines)
    if shape != point.shape:
        raise FormatError("tangent header does not match the point's shape")
    modes = []
    for i, mb in enumerate(point.modes):
        _mode_header(lines, i, mb.k)
        blocks = []
        for name, rows in (("x11", mb.k), ("x21", mb.n - mb.k)):
            x = _block(lines, name)
            if x.shape != (rows, mb.k):
                raise FormatError(f"mode {i + 1}: {name} has shape {x.shape}, "
                                  f"want {(rows, mb.k)}", lines.pos)
            blocks.append(x)
        modes.append(np.vstack(blocks))
    return ManifoldTangent(modes)


def save_point(path, point):
    with open(path, "w") as fh:
        fh.write(dump_point(point))


def read_point(path):
    with open(path) as fh:
        return load_point(fh.read())


def save_tangent(path, point, tangent):
    with open(path, "w") as fh:
        fh.write(dump_tangent(point, tangent))


def read_tangent(path, point):
    with open(path) as fh:
        return load_tangent(fh.read(), point)
