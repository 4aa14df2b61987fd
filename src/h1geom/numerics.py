"""Deterministic quadrature kernels and the one derivative: order-2
Taylor numbers.

Every routine here is a pure function with a fixed evaluation order, and
every sum is exactly rounded, so results are bit-identical across runs
regardless of how callers parallelize or block the surrounding work.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from ._gauss import NODES_WEIGHTS
from .errors import NonFiniteValue

ALLOWED_POINTS = (4, 8, 16, 32)

Samples = Union[np.ndarray, tuple[np.ndarray, ...]]


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule: nodes per cell and cell counts per axis.

    1-D integrals use ``cells[0]``.
    """

    points_per_cell: int = 16
    cells: tuple[int, int] = (8, 8)

    def __post_init__(self):
        if self.points_per_cell not in ALLOWED_POINTS:
            raise ValueError(f"points_per_cell must be one of {ALLOWED_POINTS}")
        if not all(map(_is_count, self.cells)):
            raise ValueError(f"cell counts must be integers >= 1, not {self.cells!r}")

    def doubled(self) -> "QuadratureSpec":
        return replace(self, cells=(2 * self.cells[0], 2 * self.cells[1]))


def _is_count(n) -> bool:
    """Whether ``n`` is an integer >= 1 (``operator.index``; a bool is not)."""
    try:
        return not isinstance(n, bool) and operator.index(n) >= 1
    except TypeError:
        return False


def kahan_sum(values: Sequence[float] | np.ndarray) -> float:
    """The exactly rounded sum of ``values`` (``math.fsum``): the float
    nearest the exact sum, whatever the order of the terms.

    The name predates the exact sum; every quadrature sum of the library
    goes through this one function.  A 1-D float array of n < 2^26 finite
    terms, each below 2^(1023 - n.bit_length()) in size, is summed in
    numpy (Neal's superaccumulator by binary exponent): ``np.frexp`` makes
    each term an integer mantissa below 2^53 times a power of two, the
    halves of 27 and 26 bits are summed per exponent by ``np.bincount``
    (exact: each bin stays below 2^53), and one Python-int combination and
    int/int division round the exact sum once.  The correctly rounded sum
    is unique, so this is ``math.fsum`` bit for bit.  An exact zero sum,
    whose sign ``math.fsum`` decides, and any other input take the path
    below.  Where ``math.fsum`` raises (infinite terms of both signs, or a
    partial sum past the float range), this returns the plain
    left-to-right sum instead, an inf or nan for the callers' non-finite
    checks rather than an exception.
    """
    if isinstance(values, np.ndarray):
        n = len(values)
        if 0 < n < 2**26 and np.max(np.abs(values)) < 2.0 ** (1023 - n.bit_length()):
            m, e = np.frexp(values)
            t = m * 2.0**27  # the integer mantissa m 2^53, over 2^26
            hi, e0 = np.floor(t), int(e.min())
            his, los = np.bincount(e - e0, hi), np.bincount(e - e0, t - hi) * 2.0**26
            nz = np.flatnonzero((his != 0) | (los != 0))
            total = sum(((int(h) << 26) + int(lo)) << k
                        for k, h, lo in zip(nz.tolist(), his[nz].tolist(), los[nz].tolist()))
            if total:
                return float(total << (e0 - 53)) if e0 >= 53 else total / (1 << (53 - e0))
        values = values.tolist()
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values, 0.0)


def gauss_nodes_1d(a: float, b: float, points: int, cells: int,
                   cuts: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [a, b], cut at ``cuts``.

    Returns ``(x, w)``, one row of ``points`` per cell of ``_cells_1d`` in
    order (``cells`` rows when uncut): a cell of width h has the weights
    ``0.5 h w_j``.  Raises ``ValueError`` unless a <= b: on a reversed
    interval every weight would change sign.
    """
    if not a <= b:
        raise ValueError(f"require a <= b, not [{a!r}, {b!r}]")
    x, h = _cells_1d(a, b, points, cells, cuts)
    return x, 0.5 * h[:, None] * np.array(NODES_WEIGHTS[points][1])


def split_cells(cuts: Sequence[float], cells: int) -> list[tuple[float, float, int]]:
    """The pieces ``(lo, hi, n)`` between consecutive cuts: each gets its
    share of ``cells`` by length, and at least one cell."""
    span = cuts[-1] - cuts[0]
    return [(lo, hi, max(1, round(cells * (hi - lo) / span)))
            for lo, hi in zip(cuts, cuts[1:])]


def _cells_1d(a: float, b: float, points: int, cells: int, cuts: Sequence[float]
              ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (one row per cell) and widths of the cells of the composite rule
    on [a, b]: the cuts strictly inside (a, b) split it into pieces of
    ``split_cells`` equal cells, and cell ``c`` of the piece (lo, hi, n) has
    the width ``h = (hi - lo) / n`` and the nodes ``lo + (c + 0.5) h + 0.5 h
    x_j``.  A cut on or outside an end, or given twice, changes nothing."""
    inner = sorted({c for c in cuts if a < c < b})
    pieces = split_cells([a, *inner, b], cells) if inner else [(a, b, cells)]
    nodes = np.array(NODES_WEIGHTS[points][0])
    x, h = [], []
    for lo, hi, n in pieces:
        step = (hi - lo) / n
        x.append((lo + (np.arange(n) + 0.5) * step)[:, None] + 0.5 * step * nodes)
        h.append(np.full(n, step))
    return np.concatenate(x), np.concatenate(h)


def raise_first_failure(*checks: tuple[np.ndarray, Callable[[int], Exception]]) -> None:
    """The error rule of every batched kernel: raise what its scalar view
    raises, at the first failing element in row-major order.

    Each check is a pair ``(mask, error)``: ``mask`` is True where an element
    fails, and ``error(i)`` builds the exception at flat index ``i``.  The
    masks have one shape and come in the order the scalar view runs its
    checks at one element; at the first element that fails any of them, the
    first check it fails raises.  So the error does not depend on how a
    batch is split.
    """
    masks = [np.ravel(mask) for mask, _ in checks]
    bad = np.logical_or.reduce(masks)
    if bad.any():
        raise _error_at(int(np.argmax(bad)), masks, checks)


def _error_at(i: int, masks: list[np.ndarray], checks) -> Exception:
    """The error of the first of ``checks`` that element ``i`` fails."""
    return next(error(i) for mask, (_, error) in zip(masks, checks) if mask[i])


class FirstFailures:
    """``raise_first_failure`` for a batch that is stepped on past its
    failures, as an RK4 walk or a bisection is: each element keeps the error
    of its first failing step, and ``raise_first`` raises the one of the
    first failing element in row-major order.  So every element fails as
    its own one-element run does, and the error does not depend on how a
    batch is split.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.failed = np.zeros(shape, dtype=bool)
        self._errors: dict[int, Exception] = {}

    def record(self, *checks: tuple[np.ndarray, Callable[[int], Exception]]) -> None:
        """Keep the error of ``raise_first_failure(*checks)`` at every element
        that fails one of ``checks`` for the first time."""
        masks = [np.ravel(mask) & ~self.failed.ravel() for mask, _ in checks]
        new = np.logical_or.reduce(masks)
        for i in np.flatnonzero(new).tolist():
            self._errors[i] = _error_at(i, masks, checks)
        self.failed |= new.reshape(self.failed.shape)

    def raise_first(self) -> None:
        """Raise the kept error of the first failed element."""
        raise_first_failure((self.failed, lambda i: self._errors[i]))


def _nonfinite_samples(v: np.ndarray, where: str) -> tuple:
    """The check that every sample of ``v`` is finite, for ``raise_first_failure``."""
    return ~np.isfinite(v), lambda i: NonFiniteValue(
        f"non-finite sample in {where}: {float(np.ravel(v)[i])!r}")


def integrate_array_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                       n_points: int, n_cells: int, cuts: Sequence[float] = ()) -> float:
    """The composite rule of ``gauss_legendre_1d``, cut at ``cuts``, for an
    array integrand.

    ``f`` maps the nodes of ``gauss_nodes_1d`` in row-major order, as one
    1-D array, to the samples, or to a tuple of them (``integrate_cells``);
    the terms ``w * v`` of every cell of every piece are summed at once by
    ``kahan_sum``, and checked with no numpy warning as ``integrate_cells``
    checks them.  An empty interval (a == b) gives 0.0 without calling
    ``f``; a reversed one raises ``ValueError``.
    """
    if a == b:
        return 0.0
    x, w = gauss_nodes_1d(a, b, n_points, n_cells, cuts)
    with np.errstate(over="ignore", invalid="ignore"):
        v = f(x.ravel())
    vs = tuple(np.asarray(c, dtype=float) for c in (v if isinstance(v, tuple) else (v,)))
    total = tuple(map(kahan_sum, _checked_terms(vs, w.ravel(), n_points, "gauss_legendre_1d")))
    return total if isinstance(v, tuple) else total[0]


def _composite_1d(f: Callable[[float], float], a: float, b: float,
                  n_points: int, n_cells: int) -> float:
    """``integrate_array_1d`` for a scalar ``f``, called at every node before
    the samples are checked."""
    return integrate_array_1d(lambda x: [f(xi) for xi in x.tolist()], a, b, n_points, n_cells)


def gauss_legendre_1d(f: Callable[[float], float], a: float, b: float,
                      spec: QuadratureSpec) -> float:
    """Composite Gauss-Legendre integral of ``f`` over [a, b]; 0.0 when
    a == b, and ``ValueError`` when a > b."""
    return _composite_1d(f, a, b, spec.points_per_cell, spec.cells[0])


Rect = tuple[tuple[float, float], tuple[float, float]]
Cuts = tuple[Sequence[float], Sequence[float]]  # the cut points of each axis


def gauss_nodes(rect: Rect, spec: QuadratureSpec, cuts: Cuts = ((), ())
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of the tensor-product composite rule over ``rect``,
    each axis cut at its entry of ``cuts`` as ``gauss_nodes_1d`` cuts it.

    Returns ``(U1, U2, W)`` of shape ``(cells, points**2)``: row ``c1 * n2 +
    c2`` holds the nodes of cell ``(c1, c2)`` in row-major node order, so
    ``ravel()`` gives the summation order of ``integrate_2d``.  The cell of
    widths h1 and h2 has the weights ``0.25 h1 h2 w_i w_j``.  A rectangle
    of zero width has no nodes.
    """
    (a1, b1), (a2, b2) = rect
    p = spec.points_per_cell
    if not (a1 < b1 and a2 < b2):
        if a1 == b1 or a2 == b2:
            empty = np.empty((0, p * p))
            return empty, empty, empty
        raise ValueError("degenerate rectangle")
    x1, h1 = _cells_1d(a1, b1, p, spec.cells[0], cuts[0])  # (n1, p), (n1,)
    x2, h2 = _cells_1d(a2, b2, p, spec.cells[1], cuts[1])
    n1, n2 = len(h1), len(h2)
    shape = (n1, n2, p, p)
    U1 = np.broadcast_to(x1[:, None, :, None], shape).reshape(n1 * n2, p * p)
    U2 = np.broadcast_to(x2[None, :, None, :], shape).reshape(n1 * n2, p * p)
    w = np.array(NODES_WEIGHTS[p][1])
    cell_h = 0.25 * h1[:, None] * h2[None, :]  # (n1, n2)
    W = (cell_h[:, :, None, None] * w[:, None] * w[None, :]).reshape(U1.shape)
    return U1, U2, W


def integrate_2d(f: Callable[[float, float], float], rect: Rect,
                 spec: QuadratureSpec) -> float:
    """Tensor-product composite rule over ``rect = ((a1,b1),(a2,b2))``.

    ``integrate_cells`` for a scalar ``f``, called node by node in row-major
    cell/node order, at every node of a block before its samples are checked."""
    return integrate_cells(
        lambda U1, U2: np.array([f(a, b) for a, b in zip(U1.tolist(), U2.tolist())], dtype=float),
        rect, spec)


# Nodes per integrand call of ``integrate_cells``: 16 cells at 16 points.
CELL_BLOCK_NODES = 4096


def integrate_cells(f: Callable[[np.ndarray, np.ndarray], Samples], rect: Rect,
                    spec: QuadratureSpec, cuts: Cuts = ((), ())) -> float | tuple[float, ...]:
    """The tensor-product composite rule of ``gauss_nodes`` over ``rect``, cut
    at ``cuts``, for an elementwise array integrand, evaluated on blocks of
    whole quadrature cells.

    ``f`` maps 1-D node arrays to the sample array, or to a tuple of sample
    arrays, one per integral: the result is then the tuple of their sums,
    each the sum it would be alone.  Each call gets the nodes of
    consecutive cells in the row-major order of ``gauss_nodes``, as many
    cells as fit in ``CELL_BLOCK_NODES`` (at least one), so the rule and
    that constant fix the blocks; an empty rule is one call on empty node
    arrays, which gives 0.0 per integral.  The terms are summed in that
    order, so the result does not depend on the block size.  Overflow and
    invalid operations raise no numpy warning.  The first cell holding a
    non-finite sample or an overflowing weighted term raises
    ``NonFiniteValue``, as a cell-by-cell loop would: at the first
    integral, in tuple order, that fails there, and at its first non-finite
    sample, else at its first non-finite weighted term.
    """
    U1, U2, W = gauss_nodes(rect, spec, cuts)
    per_cell = U1.shape[1]
    step = max(1, CELL_BLOCK_NODES // per_cell)
    sums = None
    for first in range(0, max(1, len(U1)), step):
        block = slice(first, first + step)
        with np.errstate(over="ignore", invalid="ignore"):
            v = f(U1[block].ravel(), U2[block].ravel())
        vs = v if isinstance(v, tuple) else (v,)
        wvs = _checked_terms(vs, W[block].ravel(), per_cell, "integrate_2d")
        if sums is None:
            sums = [[] for _ in vs]
        for terms, wv in zip(sums, wvs):
            terms.append(wv)
    total = tuple(kahan_sum(np.concatenate(terms)) for terms in sums)
    return total if isinstance(v, tuple) else total[0]


def _checked_terms(vs: Sequence[np.ndarray], w: np.ndarray, per_cell: int,
                   where: str) -> list[np.ndarray]:
    """The weighted terms ``w * v`` of each of the samples ``vs`` of one
    block of cells of the rule named ``where``, or its ``NonFiniteValue``:
    at the first cell where a sample or a term is not finite, the first of
    v_0, w v_0, v_1, w v_1, ... that is not finite there raises at its first
    non-finite node.  The weights are >= 0, so finite terms have finite
    samples."""
    with np.errstate(over="ignore", invalid="ignore"):
        wvs = [w * v for v in vs]
    if all(np.isfinite(wv).all() for wv in wvs):
        return wvs
    checks = [_nonfinite_samples(np.asarray(a).reshape(-1, per_cell), name)
              for v, wv in zip(vs, wvs)
              for a, name in ((v, where), (wv, f"{where} weighted terms"))]
    row = np.concatenate([mask for mask, _ in checks], axis=1)  # (cells, 2 len(vs) per_cell)
    width = row.shape[1]

    def error(i):
        cell, j = divmod(i, width)
        k, node = divmod(j, per_cell)
        return checks[k][1](cell * per_cell + node)

    raise_first_failure((row, error))


def rk4_states(vel: Callable[[tuple], tuple], u0: tuple, h) -> Iterator[tuple]:
    """Classical Runge-Kutta integral of ``u' = vel(u)`` at the fixed step
    ``h``: the states ``u0, u1, ...``, each stepped when it is asked for, as
    tuples; ``vel`` maps a state tuple to a velocity tuple of the same length.

    The entries of a state may be arrays, which step elementwise with the
    float arithmetic of one entry; ``h`` may then be an array that
    broadcasts against them, one step per element."""
    u = u0
    while True:
        yield u
        k1 = vel(u)
        k2 = vel(tuple([a + 0.5 * h * k for a, k in zip(u, k1)]))
        k3 = vel(tuple([a + 0.5 * h * k for a, k in zip(u, k2)]))
        k4 = vel(tuple([a + h * k for a, k in zip(u, k3)]))
        u = tuple([a + h / 6.0 * (b + 2 * c + 2 * d + e)
                   for a, b, c, d, e in zip(u, k1, k2, k3, k4)])


def rk4(vel: Callable[[tuple], tuple], u0: tuple, length, steps: int) -> list[tuple]:
    """The integral over ``length`` in ``steps`` equal steps: the list of the
    states ``u0, ..., u_steps`` of ``rk4_states`` at the step length / steps."""
    states = rk4_states(vel, u0, length / steps)
    return [next(states) for _ in range(steps + 1)]


def _where(m, cond, then, other=0.0):
    """``then`` where ``cond`` holds and ``other`` elsewhere, on a float
    (``m`` is ``math``) or elementwise on arrays (``m`` is ``numpy``).

    Both branches are computed, so each must stay defined where it is not
    taken: the profiles scale a trig argument by their ``inside`` flag
    (exactly 1 inside), so an infinite point outside the support reaches
    the trig function as nan or 0, never as inf.
    """
    if m is math:
        return then if cond else other
    return np.where(cond, then, other)


class Taylor:
    """c0 + c1 t + c2 t^2, float or array terms: forward-mode derivatives
    (Griewank and Walther, "Evaluating Derivatives", 2nd ed., SIAM 2008,
    ch. 13) of code written for ``m = math`` and ``numpy``, run with ``m =
    taylor``, value terms bit for bit.  +, -, *, / with constants and
    Taylor numbers of one t (not nested), integer powers and ``abs`` off
    zero, comparisons and ``bool`` on the value term; no ``float``, so
    ``math.exp`` raises ``TypeError``, and numpy defers to it."""

    __slots__ = ("c0", "c1", "c2")
    __array_ufunc__ = None

    def __init__(self, c0, c1=0.0, c2=0.0):
        self.c0, self.c1, self.c2 = c0, c1, c2

    def __repr__(self) -> str:
        return f"Taylor({self.c0!r}, {self.c1!r}, {self.c2!r})"

    def __add__(self, o):
        if type(o) is Taylor:
            return Taylor(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)
        return Taylor(self.c0 + o, self.c1, self.c2)

    def __neg__(self):
        return Taylor(-self.c0, -self.c1, -self.c2)

    def __sub__(self, o):  # a - b is a + (-b), bit for bit
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        a0, a1, a2 = self.c0, self.c1, self.c2
        if type(o) is not Taylor:
            return Taylor(a0 * o, a1 * o, a2 * o)
        b0, b1, b2 = o.c0, o.c1, o.c2
        return Taylor(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0)

    __radd__, __rmul__ = __add__, __mul__  # o + a is a + o, and o a is a o, bit for bit

    def __truediv__(self, o):
        if type(o) is not Taylor:
            return Taylor(self.c0 / o, self.c1 / o, self.c2 / o)
        return o.__rtruediv__(self)

    def __rtruediv__(self, o):  # o / self
        (a0, a1, a2), (b0, b1, b2) = _terms(o), _terms(self)
        q0 = a0 / b0
        q1 = (a1 - q0 * b1) / b0
        return Taylor(q0, q1, (a2 - q0 * b2 - q1 * b1) / b0)

    def __pow__(self, n):  # an integer n, off zero for n < 2
        x = self.c0
        return _chain(self, x ** n, n * x ** (n - 1), n * (n - 1) * x ** (n - 2)) \
            if type(n) is int else NotImplemented

    def __abs__(self):  # off zero: times the sign of the value, |x| bit for bit
        x = self.c0
        return self * (math.copysign(1.0, x) if isinstance(x, float) else np.sign(x))

    def __bool__(self):
        return bool(self.c0)


def _terms(x) -> tuple:
    return (x.c0, x.c1, x.c2) if type(x) is Taylor else (x, 0.0, 0.0)


for _op in (operator.lt, operator.le, operator.gt, operator.ge):  # on the value terms
    setattr(Taylor, f"__{_op.__name__}__", lambda a, b, op=_op: op(a.c0, _terms(b)[0]))


def taylor_derivatives(v) -> tuple:
    """(f, f', f'') at t = 0 of ``v`` = f(t), a Taylor number or a constant."""
    v0, v1, v2 = _terms(v)
    return v0, v1, 2.0 * v2


def _chain(x: Taylor, f0, f1, f2) -> Taylor:  # f(x) from f, f', f'' at x.c0
    return Taylor(f0, f1 * x.c1, f1 * x.c2 + 0.5 * f2 * x.c1 * x.c1)


def _lib(*xs):  # math for float value terms, else numpy
    return math if all(isinstance(x, float) for x in xs) else np


def _elementary(name: str, d1, d2):
    """``m.<name>`` on Taylor numbers, floats and arrays; f', f'' of (m, x, f(x))."""
    def f(x):
        if type(x) is not Taylor:
            return getattr(_lib(x), name)(x)
        m = _lib(x.c0)
        v = getattr(m, name)(x.c0)
        return _chain(x, v, d1(m, x.c0, v), d2(m, x.c0, v))
    return f


def _hypot(a, b):
    """hypot on Taylor numbers, floats and arrays: h'' = (a a'' + b b'' + (a b' - b a')^2/h^2)/h."""
    if type(a) is not Taylor and type(b) is not Taylor:
        return _lib(a, b).hypot(a, b)
    (a0, a1, a2), (b0, b1, b2) = _terms(a), _terms(b)
    h = _lib(a0, b0).hypot(a0, b0)
    cross = (a0 * b1 - b0 * a1) / h
    return Taylor(h, (a0 * a1 + b0 * b1) / h, (a0 * a2 + b0 * b2 + 0.5 * cross * cross) / h)


class taylor:
    """The ``m`` of ``Chart._jet_parts`` and ``_tangent_frame`` on Taylor numbers."""

    sin = staticmethod(_elementary("sin", lambda m, x, v: m.cos(x), lambda m, x, v: -v))
    cos = staticmethod(_elementary("cos", lambda m, x, v: -m.sin(x), lambda m, x, v: -v))
    sinh = staticmethod(_elementary("sinh", lambda m, x, v: m.cosh(x), lambda m, x, v: v))
    cosh = staticmethod(_elementary("cosh", lambda m, x, v: m.sinh(x), lambda m, x, v: v))
    sqrt = staticmethod(_elementary("sqrt", lambda m, x, v: 0.5 / v,
                                    lambda m, x, v: -0.25 / (v * x)))
    hypot = staticmethod(_hypot)
