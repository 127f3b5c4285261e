"""Exact operation counting under a fixed cost model.

The cost model charges ``2*a*b*c`` basic operations for an (a x b)(b x c)
matrix multiplication and ``8*a*b*c/3`` for a matrix division with the same
dimension signature (an LU factorization plus triangular solves).  Counts are
kept as exact rationals so that audits can assert equality, not closeness.
O(a*b) matrix additions are tracked in a separate counter and excluded from
the headline total.

Two accounting conventions are deliberate.  Tall blocks paired with a k x k
factor are charged with the full mode dimension n as their row count, and the
cross term of the geodesic update is charged as if it were evaluated against
the symmetric factor first; both match the published per-step itemization
that the audit layer checks against.

Each step scope also records its wall time in ``seconds``, per label.  Times
are not deterministic, so they sit beside the exact counts, never in them.
"""

import time
from fractions import Fraction


class FlopLedger:
    """Deterministic counter of model operations, grouped by step label.

    ``seconds`` holds the wall time spent inside ``step`` scopes, summed per
    label (a nested scope's time also counts for the enclosing one).
    """

    def __init__(self):
        self.per_step = {}
        self.seconds = {}
        self.additions = Fraction(0)
        self._label = "unlabeled"

    @property
    def total(self):
        """Headline count: exact sum of all per-step multiply/divide charges."""
        return sum(self.per_step.values(), Fraction(0))

    def step(self, label):
        """Context manager routing subsequent charges to ``label``.

        The scope's wall time is added to ``seconds[label]``.
        """
        return _StepScope(self, label)

    def mult(self, a, b, c, label=None):
        """Charge an (a x b)(b x c) multiplication: 2abc."""
        self._charge(Fraction(2 * a * b * c), label)

    def div(self, a, b, c, label=None):
        """Charge an (a x b)\\(b x c) division: 8abc/3."""
        self._charge(Fraction(8 * a * b * c, 3), label)

    def add(self, a, b):
        """Track an a x b matrix addition (excluded from the headline total)."""
        self.additions += Fraction(a * b)

    def _charge(self, amount, label):
        key = label if label is not None else self._label
        self.per_step[key] = self.per_step.get(key, Fraction(0)) + amount

    def merge(self, other, prefix=""):
        """Fold another ledger into this one, optionally prefixing its labels."""
        for key, val in other.per_step.items():
            k = prefix + key
            self.per_step[k] = self.per_step.get(k, Fraction(0)) + val
        for key, val in other.seconds.items():
            k = prefix + key
            self.seconds[k] = self.seconds.get(k, 0.0) + val
        self.additions += other.additions
        return self

    def __repr__(self):
        return f"FlopLedger(total={self.total}, steps={len(self.per_step)})"


class _StepScope:
    def __init__(self, ledger, label):
        self.ledger = ledger
        self.label = label

    def __enter__(self):
        self._saved = self.ledger._label
        self.ledger._label = self.label
        self._start = time.perf_counter()
        return self.ledger

    def __exit__(self, *exc):
        seconds = self.ledger.seconds
        seconds[self.label] = (seconds.get(self.label, 0.0)
                               + time.perf_counter() - self._start)
        self.ledger._label = self._saved
        return False


# ---------------------------------------------------------------------------
# Published per-step counts for one mode of a low-rank geodesic update.
# These are what an instrumented run must reproduce exactly.

def psi1_count(k, z):
    """Exact model count of ``psi1`` on a k x k input with scaling exponent z.

    z >= 1 follows the scaled path: 6 multiplies for the power table,
    two Pade divisions, and z-1 squarings plus z-1 doubling products,
    totalling (52/3 + 4(z-1)) k^3.  z = 0 is the direct Pade quotient:
    5 power multiplies and one division, 38/3 k^3.
    """
    k3 = Fraction(k) ** 3
    if z == 0:
        return Fraction(38, 3) * k3
    return (Fraction(52, 3) + 4 * (z - 1)) * k3


def gamma12_count(n, k):
    """Count to build the k x (n-k) coupling block: 20nk^2/3 + 22k^3/3."""
    return Fraction(20 * n * k * k, 3) + Fraction(22 * k**3, 3)


def build_b_count(n, k):
    """Count to build the right factor of X g^-1: 2nk^2 + 8k^3/3."""
    return Fraction(2 * n * k * k) + Fraction(8 * k**3, 3)


def ba_count(n, k):
    """Count of the k x k product BA: 2nk^2."""
    return Fraction(2 * n * k * k)


def bpap_count(n, k):
    """Count of the 2k x 2k product B'A': 2n(2k)^2."""
    return Fraction(2 * n * (2 * k) ** 2)


def term2_count(n, k):
    """Count of the symmetric-factor term: 4nk^2 + 2k^3."""
    return Fraction(4 * n * k * k) + Fraction(2 * k**3)


def term3_count(n, k):
    """Count of the skew-factor term: 8nk^2 + 8k^3."""
    return Fraction(8 * n * k * k) + Fraction(8 * k**3)


def term4_count(n, k):
    """Count of the cross term: 6nk^2 + 6k^3."""
    return Fraction(6 * n * k * k) + Fraction(6 * k**3)


def mode_step_items(n, k, z):
    """Ordered (label, exact count) pairs for one mode of a geodesic update."""
    return [
        ("gamma12", gamma12_count(n, k)),
        ("build_B", build_b_count(n, k)),
        ("BA", ba_count(n, k)),
        ("psi1_BA", psi1_count(k, z)),
        ("BpAp", bpap_count(n, k)),
        ("psi1_BpAp", psi1_count(2 * k, z)),
        ("term2", term2_count(n, k)),
        ("term3", term3_count(n, k)),
        ("term4", term4_count(n, k)),
    ]


def mode_step_total(n, k, z):
    """Leading-term cost of one mode: 110nk^2/3 + (146 + 36z)k^3 for z >= 1."""
    return sum(count for _, count in mode_step_items(n, k, z))


def geodesic_formula(dims, ks, zs):
    """Exact value of the per-mode cost formula summed over modes.

    Every z must be >= 1; the closed form (146 + 36z)k^3 only describes the
    scaled evaluation path.
    """
    if len(dims) != len(ks) or len(dims) != len(zs):
        raise ValueError("dims, ks and zs must have equal length")
    total = Fraction(0)
    for n, k, z in zip(dims, ks, zs):
        if z < 1:
            raise ValueError("cost formula requires z >= 1 in every mode")
        total += Fraction(110 * n * k * k, 3) + (146 + 36 * z) * Fraction(k) ** 3
    return total
