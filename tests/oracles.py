"""Oracles and fixtures that the tests compare the package against.

None of this is part of the package: no CLI command and no benchmark
workload reaches it, and the package does not import this module. It holds
the reflections of a unit-square function, a two-piece shuffle, rectangle
mass, node grids with their discrete Stieltjes concordance, random
checkerboard copulas, and every piece of an upper envelope evaluated on
every node.
"""

from dataclasses import dataclass

import numpy as np

from copulabounds.core import (UNIT_SLACK, BivariateFunction, InvalidSpecError, ShuffleSpec,
                               UnitPoint, _finite, _whole, grid_nodes)

TRANSFORM_KINDS = ("sigma1", "survival")


class TransformedFunction(BivariateFunction):
    """Reflection of a unit-square function.

    sigma1: v - C(1-u, v); survival: u + v - 1 + C(1-u, 1-v).
    """

    def __init__(self, base, kind):
        if kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform {kind!r}, expected one of {TRANSFORM_KINDS}")
        self.base = base
        self.kind = kind
        self.label = f"{kind}({base.label})"

    def _value(self, u, v):
        base = self.base._value
        if self.kind == "sigma1":
            return v - base(1.0 - u, v)
        return u + v - 1.0 + base(1.0 - u, 1.0 - v)


HALF_SHIFT_SHUFFLE = ShuffleSpec((0.0, 0.5, 1.0), (2, 1), (1, 1))


class BadRectangleError(ValueError):
    """Rectangle corners are not ordered lo <= hi componentwise."""


def h_volume(func, lo: UnitPoint, hi: UnitPoint) -> float:
    """Mass C(hi) - C(hi.u, lo.v) - C(lo.u, hi.v) + C(lo) of a rectangle;
    ValueError when it is not finite."""
    if lo.u > hi.u or lo.v > hi.v:
        raise BadRectangleError(f"corners not ordered: {lo} !<= {hi}")
    return _finite(float(func(hi.u, hi.v) - func(hi.u, lo.v) - func(lo.u, hi.v)
                         + func(lo.u, lo.v)), "h-volume")


@dataclass(frozen=True)
class GridFunction:
    """Node samples values[i, j] = F(i/n, j/n) of a unit-square function."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        n, values = _whole(self.n, "n", 2), np.asarray(self.values, dtype=float)
        if values.shape != (n + 1, n + 1):
            raise ValueError(f"values must have shape ({n + 1}, {n + 1})")
        if not (values.min() >= -1e-9 and values.max() <= 1.0 + 1e-9):
            raise ValueError("grid values must lie in [0, 1] and not be NaN")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, func, n: int) -> "GridFunction":
        t = grid_nodes(n)
        return cls(n, func(t[:, None], t[None, :]))

    def cell_volumes(self) -> np.ndarray:
        du = np.diff(self.values, axis=0)
        return du[:, 1:] - du[:, :-1]

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) / self.n


class NotACopulaGridError(ValueError):
    """A gridded function has a meaningfully negative cell volume."""


def q_concordance(grid: GridFunction, func) -> float:
    """Discrete Stieltjes concordance 4 * sum C2(midpoints) * mass - 1.

    ``grid`` carries the integrating copula; cell masses are its grid-cell
    volumes and ``func`` is evaluated at cell midpoints. Rejects grids with
    a cell volume below -1e-9, and a non-finite result.
    """
    vols = grid.cell_volumes()
    worst = float(vols.min())
    if worst < -1e-9:
        raise NotACopulaGridError(f"cell volume {worst} is negative; not a copula grid")
    mid = grid.midpoints()
    vals = func(mid[:, None], mid[None, :])
    return _finite(float(4.0 * np.sum(vals * vols) - 1.0), "concordance")


SINKHORN_ITERS = 1000


class CheckerboardCopula(BivariateFunction):
    """Piecewise-uniform copula spreading masses[i, j] over cell ij.

    Every row and column of ``masses`` must sum to 1/n (uniform margins);
    the CDF is then bilinear inside each cell, interpolating the cumulative
    corner values exactly.
    """

    def __init__(self, masses):
        masses = np.asarray(masses, dtype=float)
        if masses.ndim != 2 or masses.shape[0] != masses.shape[1] or not masses.size:
            raise InvalidSpecError("masses must be a nonempty square matrix")
        n = masses.shape[0]
        if not masses.min() >= -UNIT_SLACK:
            raise InvalidSpecError("cell masses must be nonnegative and not NaN")
        target = 1.0 / n
        if not (np.abs(masses.sum(axis=0) - target).max() <= 1e-9
                and np.abs(masses.sum(axis=1) - target).max() <= 1e-9):
            raise InvalidSpecError("rows and columns must each sum to 1/n")
        self.n = n
        self.masses = masses
        cum = np.zeros((n + 1, n + 1))
        np.cumsum(np.cumsum(masses, axis=0), axis=1, out=cum[1:, 1:])
        self._cum = cum
        self.label = f"checkerboard[{n}]"

    @classmethod
    def random(cls, n: int, seed: int) -> "CheckerboardCopula":
        """Random checkerboard via Sinkhorn balancing of a positive matrix,
        for at most ``SINKHORN_ITERS`` sweeps."""
        n, seed = _whole(n, "n"), _whole(seed, "seed")
        if n < 1:
            raise InvalidSpecError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        m = rng.random((n, n)) + 0.1
        for _ in range(SINKHORN_ITERS):
            m /= m.sum(axis=1, keepdims=True) * n
            m /= m.sum(axis=0, keepdims=True) * n
            if np.abs(m.sum(axis=1) * n - 1.0).max() < 1e-15:
                break
        return cls(m)

    def _value(self, u, v):
        n = self.n
        x = u * n
        y = v * n
        i = np.minimum(np.floor(x).astype(np.intp), n - 1)
        j = np.minimum(np.floor(y).astype(np.intp), n - 1)
        fu = x - i
        fv = y - j
        c = self._cum
        return ((1 - fu) * (1 - fv) * c[i, j] + fu * (1 - fv) * c[i + 1, j]
                + (1 - fu) * fv * c[i, j + 1] + fu * fv * c[i + 1, j + 1])


def all_pieces(bound, u, v):
    """Masks and values of every piece of the ``core.PiecewiseEnvelope``
    ``bound``, live or not, on every node: the form that the envelope's one
    pass must match once its values are clamped to [W, M]."""
    codes = range(1, len(bound.LABELS))
    return ([bound._mask(c, u, v) for c in codes],
            [bound._mirrored(bound._piece, c, u, v) for c in codes])
