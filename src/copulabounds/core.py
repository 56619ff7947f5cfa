"""Copula primitives on the unit square.

Frechet-Hoeffding envelope, the product copula, the envelope base classes,
the extremal copulas through a prescribed point, shuffles of min, grid
audits of the (quasi-)copula axioms, and samplers.

Evaluators are immutable after construction and safe to call concurrently.
Samplers take an explicit seed and own their generator, so equal seeds
reproduce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_SLACK = 1e-12


class InvalidSpecError(ValueError):
    """Parameters of an extremal-copula or shuffle spec are inconsistent."""


class NotMonotoneError(ValueError):
    """A numeric conditional CDF was observed decreasing beyond tolerance."""


class OutOfRangeError(ValueError):
    """A parameter lies outside its admissible range."""


def _as_unit(x, what="coordinate"):
    """Coerce to float array, clamp drift within UNIT_SLACK, reject farther and NaN.

    An array already in [0, 1] is returned as is, not copied (so -0.0 keeps
    its sign, as it does through ``np.clip``); evaluators never write into
    their coordinates."""
    x = np.asarray(x, dtype=float)
    if not x.size:
        return x
    lo, hi = float(x.min()), float(x.max())
    # written so that NaN fails it
    if not (lo >= -UNIT_SLACK and hi <= 1.0 + UNIT_SLACK):
        raise ValueError(f"{what} outside the unit interval: range [{lo}, {hi}]")
    return x if lo >= 0.0 and hi <= 1.0 else np.clip(x, 0.0, 1.0)


def _on_unit(fn, u, v, cast=float):
    """``fn`` on validated unit coordinates; a Python ``cast`` scalar when
    both ``u`` and ``v`` are scalars, otherwise an array of their shape.

    A scalar call runs as the call on one-element arrays: numpy scalars
    square by ``pow()``, which can differ from ``x * x`` in the last bit, so
    this keeps a scalar call bit for bit equal to the array call."""
    u, v = _as_unit(u, "u"), _as_unit(v, "v")
    if np.ndim(u) or np.ndim(v):
        return np.asarray(fn(u, v))
    return cast(np.asarray(fn(np.reshape(u, 1), np.reshape(v, 1)))[0])


def _finite(x, what):
    """``x`` unchanged when every entry is finite; ValueError otherwise."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} is not finite; the evaluator returned NaN or inf")
    return x


def _check_range(value, lo, hi, what) -> float:
    """``value`` as a float clamped to [lo, hi]; drift within UNIT_SLACK is
    clamped, anything farther out (or NaN) raises OutOfRangeError."""
    value = float(value)
    if not (lo - UNIT_SLACK <= value <= hi + UNIT_SLACK):
        raise OutOfRangeError(f"{what} value {value} outside [{lo}, {hi}]")
    return min(max(value, lo), hi)


def _whole(x, what, least=None, even=False) -> int:
    """``x`` as an int; anything that is not a whole number (a fraction, an
    infinity, NaN, a string) raises ValueError instead of being truncated,
    and so does a number below ``least`` or, when ``even``, an odd one."""
    try:
        n = int(x)
    except (OverflowError, TypeError, ValueError):
        n = None
    if n is None or n != x:
        raise ValueError(f"{what} must be a whole number, got {x!r}")
    if least is not None and (n < least or even and n % 2):
        raise ValueError(f"{what} must be {'even and ' if even else ''}>= {least}, got {n}")
    return n


def grid_nodes(n: int) -> np.ndarray:
    """The n + 1 equispaced nodes i/n of [0, 1]; n must be at least 1."""
    n = _whole(n, "n", 1)
    return np.arange(n + 1) / n


@dataclass(frozen=True)
class UnitPoint:
    """A point of the closed unit square."""

    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(_as_unit(self.u, "u")))
        object.__setattr__(self, "v", float(_as_unit(self.v, "v")))


class BivariateFunction:
    """Deterministic real-valued function on the closed unit square.

    Subclasses implement ``_value`` on pre-clamped float arrays. Instances
    are called with scalars or broadcastable arrays and mirror the input
    shape; coordinates within ``UNIT_SLACK`` outside [0, 1] are clamped,
    anything farther out is rejected.
    """

    label = "?"

    def _value(self, u, v):
        raise NotImplementedError

    def __call__(self, u, v):
        return _on_unit(self._value, u, v)

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class Envelope(BivariateFunction):
    """Pointwise bound of all copulas sharing the measure value ``k``.

    Subclasses declare the spec ``NAME``, the ``MEASURE`` and its ``RANGE``,
    ``W_UP_TO`` and ``M_FROM`` (the bound is W for k <= W_UP_TO and M for
    k >= M_FROM), ``QUASI`` (the open interval of k where the bound is not a
    copula, empty by default) and ``_pass(u, v, codes)``: the bound clamped
    to [W, M] and its int8 region codes, which may be None unless ``codes``
    is true. The pass ignores W_UP_TO and M_FROM; ``_evaluate`` applies them.
    """

    W_UP_TO, M_FROM, QUASI = -np.inf, np.inf, (0.0, 0.0)
    LABELS = ("none",)
    is_copula = property(lambda self: not self.QUASI[0] < self.k < self.QUASI[1])

    def __init__(self, k):
        self.k = _check_range(k, *self.RANGE, self.MEASURE)
        self.label = f"{self.NAME}:{self.k:g}"

    @classmethod
    def _functional(cls, k, u, v):
        """The functional form (k, u, v) of the bound: ``cls(k)(u, v)``."""
        return cls(k)(u, v)

    def _evaluate(self, u, v, codes=False):
        """The values and, when ``codes``, the region codes (else None)."""
        if self.W_UP_TO < self.k < self.M_FROM:
            return self._pass(u, v, codes)
        # where the bound is exactly W or M, return it: the degenerate regions
        # are fragile and the clamp must not leak edge rounding into it
        vals = (W if self.k <= self.W_UP_TO else M)._value(u, v)
        return vals, self._region_codes(u, v) if codes else None

    def _value(self, u, v):
        return self._evaluate(u, v)[0]

    def _region_codes(self, u, v):
        return self._pass(u, v, True)[1]


class PiecewiseEnvelope(Envelope):
    """Envelope piecewise over regions 1..N (N odd), and M outside them.

    Region and piece N + 1 - c are region and piece c at the transposed
    point; the centre region is its own transpose. Subclasses declare the
    ``LABELS`` "none" and 1..N, ``VANISH`` (for each code up to the centre,
    the parameter from which that region and its transpose are empty),
    ``_tau``, ``_region(code, a, b)`` (the mask of a region before the
    centre, or one half of the centre mask) and ``_piece(code, a, b)`` for
    codes up to the centre.

    A region is live while k < VANISH + 1e-9; only live masks and pieces are
    ever built. A dead mask is false at every node, so leaving it out keeps
    the first match, and with it every code and value.

    One pass, ``_pass``, gives the values and, when asked, the codes. M is
    written once over the broadcast shape. On the block, one sweep over the
    live masks gives each node the first code whose mask holds (the rule of
    ``np.select``), and each live piece runs on the nodes of its code only,
    clamped to [W, M] there. Everywhere else clip(M, W, M) would be M bit
    for bit, so the values are those of the all-pieces form clamped on every
    node.

    No region reaches a row or column x with 6x(1 - x) < tau. The regions
    cover the points where the envelope lies below M, which are those where
    the least measure of a copula with C(a, b) = M(a, b) exceeds the
    parameter, and their boundaries. On a row or column x that measure is
    largest on the diagonal, at 6x(1 - x) - 1 for gamma and 3x(1 - x) - 1/2
    for the footrule; so tau = 1 + gamma, or 1 + 2 phi.
    """

    VANISH = ()

    def __init__(self, k):
        super().__init__(k)
        n = len(self.LABELS)  # N + 1
        half = [c for c, k0 in enumerate(self.VANISH, 1) if self.k < k0 + 1e-9]
        self._live = tuple(half + [n - c for c in reversed(half) if n - c != c])

    def _block(self, u, v):
        """The index of the rows and columns (of the broadcast shape) that a
        live region can reach, and u and v cut to it; None when there are
        none. A row or column is kept where 6x(1 - x) > tau - 1e-9 holds for
        both coordinates somewhere on it; the margin covers the rounding of
        the masks. An axis whose kept indices are consecutive (sorted nodes)
        is indexed by a slice, so its cuts are views; with at most one other
        axis the index is a plain tuple, whose writes are cheaper than those
        through ``np.ix_``, which serves the rest. Axes of length 1 are not
        cut, so u and v still broadcast and a mask's terms of one coordinate
        cost one value per row or column."""
        if not self._live:
            return None
        cut = self._tau - 1e-9
        near = (6.0 * u * (1.0 - u) > cut) & (6.0 * v * (1.0 - v) > cut)
        nd = near.ndim
        keep = [near.any(axis=tuple(j for j in range(nd) if j != i)).nonzero()[0]
                for i in range(nd)]
        if not all(k.size for k in keep):
            return None
        runs = [slice(k[0], k[-1] + 1) if k[-1] - k[0] + 1 == k.size else k for k in keep]
        scattered = sum(not isinstance(k, slice) for k in runs)
        ix = tuple(runs) if scattered <= 1 else np.ix_(*keep)
        # leading axes of length 1, so that axis i of u, v and near agree
        u, v = u[(None,) * (nd - u.ndim)], v[(None,) * (nd - v.ndim)]

        def cut_to(x, i, k):
            if x.shape[i] == 1:
                return x
            return x[(slice(None),) * i + (k,)] if isinstance(k, slice) else x.take(k, axis=i)

        for i, k in enumerate(runs):
            u, v = cut_to(u, i, k), cut_to(v, i, k)
        return ix, u, v

    def _mirrored(self, fn, code, a, b):
        """``fn`` (``_region`` or ``_piece``) for ``code``: past the centre,
        the transposed code N + 1 - code at the transposed point."""
        mirror = len(self.LABELS) - code
        return fn(mirror, b, a) if mirror < code else fn(code, a, b)

    def _mask(self, code, a, b):
        mask = self._mirrored(self._region, code, a, b)
        # the centre is its own transpose
        return mask & self._region(code, b, a) if 2 * code == len(self.LABELS) else mask

    @classmethod
    def _codes_at(cls, k, u, v):
        """Code 1..N of the piece governing ``cls(k)`` at (u, v), else 0; an
        int for scalar input."""
        return _on_unit(cls(k)._region_codes, u, v, int)

    def _pass(self, u, v, codes=False):
        out = M._value(u, v)
        found = np.zeros(out.shape, dtype=np.int8) if codes else None
        block = self._block(u, v)
        if not block:
            return out, found
        ix, a, b = block
        vals = M._value(a, b)
        block_codes = np.zeros(vals.shape, dtype=np.int8) if codes else None
        # adjacent pieces agree on shared boundaries, so the order of the
        # sweep only picks among equal expressions. The masks take a and b as
        # cut, so that terms of one coordinate stay one value per row or column;
        # the gathers take them broadcast to the block.
        free = np.ones(vals.shape, dtype=bool)
        full_a, full_b = np.broadcast_arrays(a, b)
        for code in self._live:
            nodes = self._mask(code, a, b) & free
            if not nodes.any():
                continue
            free ^= nodes
            if codes:
                block_codes[nodes] = code
            x, y = full_a[nodes], full_b[nodes]
            vals[nodes] = np.clip(self._mirrored(self._piece, code, x, y),
                                  W._value(x, y), M._value(x, y))
        out[ix] = vals
        if codes:
            found[ix] = block_codes
        return out, found


class FrechetLower(BivariateFunction):
    """Countermonotone copula max(0, u + v - 1), the pointwise least copula."""

    label = "W"

    def _value(self, u, v):
        return np.maximum(u + v - 1.0, 0.0)


class FrechetUpper(BivariateFunction):
    """Comonotone copula min(u, v), the pointwise greatest copula."""

    label = "M"

    def _value(self, u, v):
        return np.minimum(u, v)


class Independence(BivariateFunction):
    """Product copula u * v."""

    label = "Pi"

    def _value(self, u, v):
        return u * v


W = FrechetLower()
M = FrechetUpper()
PI = Independence()


# ---------------------------------------------------------------------------
# Extremal copulas through a prescribed point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalSpec:
    """Anchor (a, b) in the open unit square, offset c, and side.

    ``lower`` is the pointwise least copula taking value W(a,b) + c at the
    anchor, ``upper`` the pointwise greatest taking value M(a,b) - c there.
    Admissible offsets are 0 <= c <= min(a, b, 1-a, 1-b); both anchored
    values then sweep the whole interval [W(a,b), M(a,b)].
    """

    a: float
    b: float
    c: float
    kind: str

    def __post_init__(self):
        if self.kind not in ("lower", "upper"):
            raise InvalidSpecError(f"kind must be 'lower' or 'upper', got {self.kind!r}")
        a, b, c = float(self.a), float(self.b), float(self.c)
        if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
            raise InvalidSpecError(f"anchor ({a}, {b}) must lie in the open unit square")
        cmax = min(a, b, 1.0 - a, 1.0 - b)
        if not (-UNIT_SLACK <= c <= cmax + UNIT_SLACK):
            raise InvalidSpecError(f"offset c={c} outside [0, {cmax}] for anchor ({a}, {b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", min(max(c, 0.0), cmax))

    @property
    def anchor_value(self) -> float:
        """Value taken at the anchor: W(a,b)+c for lower, M(a,b)-c for upper."""
        if self.kind == "lower":
            return float(W._value(self.a, self.b)) + self.c
        return float(M._value(self.a, self.b)) - self.c


class ExtremalCopula(BivariateFunction):
    """Pointwise least/greatest copula with a prescribed anchor value.

    Both are shuffles of min, so they are genuine copulas; mass sits on
    finitely many slope +-1 segments. Evaluation uses the branch-cheap
    max/min closed form; ``as_shuffle`` exposes the support for sampling.
    """

    def __init__(self, spec: ExtremalSpec):
        self.spec = spec
        self.label = f"extremal:{spec.kind},{spec.a:g},{spec.b:g},{spec.c:g}"

    def _value(self, u, v):
        a, b = self.spec.a, self.spec.b
        d = self.spec.anchor_value
        if self.spec.kind == "lower":
            core = np.minimum(np.minimum(d, u - a + d),
                              np.minimum(v - b + d, u + v - a - b + d))
            return np.maximum(W._value(u, v), core)
        # plane pattern arranged so the prescribed value sits at (a, b) itself
        core = np.maximum(np.maximum(d, u - a + d),
                          np.maximum(v - b + d, u + v - a - b + d))
        return np.minimum(M._value(u, v), core)

    def as_shuffle(self) -> "ShuffleSpec":
        a, b = self.spec.a, self.spec.b
        d = self.spec.anchor_value
        if self.spec.kind == "lower":
            bounds = [0.0, a - d, a, 1.0 - b + d, 1.0]
            targets = [4, 2, 3, 1]
            omega = -1
        else:
            bounds = [0.0, d, a, a + b - d, 1.0]
            targets = [1, 3, 2, 4]
            omega = 1
        lengths = np.maximum(np.diff(np.asarray(bounds)), 0.0)
        keep = lengths > UNIT_SLACK
        kept_targets = [t for t, k in zip(targets, keep) if k]
        rank = {t: r + 1 for r, t in enumerate(sorted(kept_targets))}
        cuts = np.cumsum([0.0, *lengths[keep]])
        cuts[-1] = 1.0
        return ShuffleSpec(tuple(cuts),
                           tuple(rank[t] for t in kept_targets),
                           (omega,) * len(kept_targets))


# ---------------------------------------------------------------------------
# Shuffles of min
# ---------------------------------------------------------------------------

def _whole_numbers(values, what) -> tuple:
    """``values`` as ints by the rule of ``_whole``; InvalidSpecError otherwise."""
    values = tuple(values)
    try:
        return tuple(_whole(x, what) for x in values)
    except ValueError:
        raise InvalidSpecError(f"{what} entries must be whole numbers, got {values}") from None


@dataclass(frozen=True)
class ShuffleSpec:
    """Piecewise rearrangement of the comonotone copula.

    ``cuts`` partitions [0, 1] on the first axis. Piece i (between cuts[i-1]
    and cuts[i], 1-based) is carried onto slot ``permutation[i-1]`` of the
    second axis with slope ``orientations[i-1]`` (+1 keeps direction, -1
    reverses). Slot k inherits the width of the piece sent to it, so the
    margins stay uniform.
    """

    cuts: tuple
    permutation: tuple
    orientations: tuple

    def __post_init__(self):
        cuts = tuple(float(t) for t in self.cuts)
        n = len(cuts) - 1
        if n < 1:
            raise InvalidSpecError("need at least one piece")
        # both tests are written so that a NaN cut fails them
        if not (abs(cuts[0]) <= UNIT_SLACK and abs(cuts[-1] - 1.0) <= UNIT_SLACK):
            raise InvalidSpecError("cuts must run from 0 to 1")
        cuts = (0.0,) + cuts[1:-1] + (1.0,)
        if not all(cuts[i] < cuts[i + 1] for i in range(n)):
            raise InvalidSpecError("cuts must be strictly increasing")
        perm = _whole_numbers(self.permutation, "permutation")
        if sorted(perm) != list(range(1, n + 1)):
            raise InvalidSpecError(f"permutation {perm} is not a bijection on 1..{n}")
        orient = _whole_numbers(self.orientations, "orientation")
        if len(orient) != n or any(o not in (-1, 1) for o in orient):
            raise InvalidSpecError("orientations must be one sign (+1 or -1) per piece")
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "orientations", orient)

    @property
    def n_pieces(self) -> int:
        return len(self.cuts) - 1

    def piece_geometry(self):
        """Arrays (p_lo, p_hi, s_lo, s_hi, omega), one entry per piece."""
        cuts = np.asarray(self.cuts)
        widths = np.diff(cuts)
        perm = np.asarray(self.permutation)
        slot_widths = np.empty_like(widths)
        slot_widths[perm - 1] = widths
        edges = np.concatenate(([0.0], np.cumsum(slot_widths)))
        return (cuts[:-1], cuts[1:], edges[perm - 1], edges[perm],
                np.asarray(self.orientations))


class ShuffleOfMin(BivariateFunction):
    """CDF of a shuffle of min: mass is uniform on slope +-1 segments."""

    def __init__(self, spec: ShuffleSpec):
        self.spec = spec
        self.label = f"shuffle[{spec.n_pieces}]"
        self._geom = spec.piece_geometry()

    def _value(self, u, v):
        p_lo, p_hi, s_lo, s_hi, omega = self._geom
        total = np.zeros(np.broadcast(u, v).shape)
        for i in range(len(omega)):
            if omega[i] > 0:
                hi_x = np.minimum(np.minimum(u, p_hi[i]), p_lo[i] + (v - s_lo[i]))
                total += np.maximum(hi_x - p_lo[i], 0.0)
            else:
                lo_x = p_lo[i] + np.maximum(s_hi[i] - v, 0.0)
                total += np.maximum(np.minimum(u, p_hi[i]) - lo_x, 0.0)
        return total


IDENTITY_SHUFFLE = ShuffleSpec((0.0, 1.0), (1,), (1,))
REVERSAL_SHUFFLE = ShuffleSpec((0.0, 1.0), (1,), (-1,))


def sample_shuffle(spec: ShuffleSpec, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` points on the shuffle's support, shape (count, 2).

    The first coordinate is uniform; the second is its image under the
    piecewise translation/reflection, so points sit exactly on the support
    segments. Reproducible for a fixed seed.
    """
    count, seed = _whole(count, "count"), _whole(seed, "seed", 0)
    if count < 1:
        raise InvalidSpecError("count must be >= 1")
    p_lo, p_hi, s_lo, s_hi, omega = spec.piece_geometry()
    rng = np.random.default_rng(seed)
    x = rng.random(count)
    idx = np.clip(np.searchsorted(spec.cuts, x, side="right") - 1, 0, spec.n_pieces - 1)
    off = x - p_lo[idx]
    y = np.where(omega[idx] > 0, s_lo[idx] + off, s_hi[idx] - off)
    return np.column_stack([x, y])


# ---------------------------------------------------------------------------
# Axiom audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a grid audit of the quasi-copula axioms.

    ``lipschitz_violation`` is the worst violation of 0 <= increment <= 1/n
    over axis-adjacent node pairs (covers monotonicity and 1-Lipschitz),
    ``margin_violation`` the worst boundary mismatch, ``worst_volume`` the
    most negative grid-cell mass with its rectangle.
    """

    is_quasicopula: bool
    is_two_increasing: bool
    worst_volume: float
    worst_rectangle: tuple
    lipschitz_violation: float
    margin_violation: float


def check_quasicopula(func, n: int = 200, tol: float = 1e-9) -> AxiomReport:
    """Audit groundedness, margins, monotonicity, 1-Lipschitz and cell mass.

    All checks run on the (n+1) x (n+1) node grid i/n. The mesh bounds
    off-grid Lipschitz violations, so a clean grid report certifies the
    axioms up to O(1/n). A non-finite value on the grid raises ValueError.
    """
    n = _whole(n, "n", 2)
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    t = grid_nodes(n)
    # Python's max() below would pass over a NaN reduction and certify it
    vals = _finite(func(t[:, None], t[None, :]), "audited function")
    mesh = 1.0 / n

    margin = max(
        float(np.abs(vals[0, :]).max()),
        float(np.abs(vals[:, 0]).max()),
        float(np.abs(vals[-1, :] - t).max()),
        float(np.abs(vals[:, -1] - t).max()),
    )
    du = np.diff(vals, axis=0)
    dv = np.diff(vals, axis=1)
    lip = max(0.0,
              float((du - mesh).max()), float((dv - mesh).max()),
              float((-du).max()), float((-dv).max()))

    vol = du[:, 1:] - du[:, :-1]
    flat = int(np.argmin(vol))
    i, j = divmod(flat, n)
    worst = float(vol[i, j])
    rect = (UnitPoint(i / n, j / n), UnitPoint((i + 1) / n, (j + 1) / n))

    return AxiomReport(
        is_quasicopula=(margin <= tol and lip <= tol),
        is_two_increasing=(worst >= -tol),
        worst_volume=worst,
        worst_rectangle=rect,
        lipschitz_violation=lip,
        margin_violation=margin,
    )


# ---------------------------------------------------------------------------
# Conditional-inverse sampling
# ---------------------------------------------------------------------------

DERIV_STEP = 1e-6
MONO_TOL = 1e-7
PROBE_LEVELS = 32  # probe levels k/32, the midpoints of the first five bisection steps
PROBE_BLOCK = 16_000  # sample points times levels per probe call


def sample_conditional(func, count: int, seed: int, inv_tol: float = 1e-6) -> np.ndarray:
    """Sample a copula by inverting its numeric conditional CDF.

    The conditional CDF at u is the forward difference
    (C(u + h, v) - C(u, v)) / h with h = ``DERIV_STEP`` (the stencil shifts
    left at the right edge), inverted by bisection until the bracket is
    at most ``inv_tol``, which must be finite and at least 2**-53 (the
    spacing of doubles in [1/2, 1)). No density is required, so singular
    copulas work.

    An ``Envelope`` inside its ``QUASI`` interval, a proper quasi-copula, is
    refused up front with OutOfRangeError: near the ends of the interval the
    probe below misses its negative mass.

    The conditional CDF is first probed at the levels k/32, k = 1..32. Each
    probe call broadcasts the stacked pair (u + h, u), shape (2, 1, count),
    against a block of levels, shape (L, 1), so terms of u alone cost
    2 * count elements and terms of v alone L. A block holds
    ``PROBE_BLOCK // count`` levels, clipped to 1..32 (8 at 2000 points),
    which bounds the size of each call. A decrease beyond ``MONO_TOL``
    between consecutive levels raises NotMonotoneError (the function is then
    not 2-increasing and has no conditional distribution to invert). The
    levels are the midpoints of the first five bisection steps, so those
    steps are lookups in the probe table; each later step is one call on the
    stacked pair. Every comparison sees the same doubles as one call per
    level and per side would, so the output does not depend on the blocking.
    A non-finite value of the conditional CDF, in the probe table or in a
    bisection step, raises ValueError.

    The points are walked in the order of u, so that an envelope cuts the
    probe's u axis by a slice (``PiecewiseEnvelope._block``). Each point's
    steps see only its own doubles, so the walk changes no output; the rows
    are returned in draw order.
    """
    count, seed = _whole(count, "count", 1), _whole(seed, "seed", 0)
    if isinstance(func, Envelope) and not func.is_copula:
        lo, hi = func.QUASI
        raise OutOfRangeError(f"{func.label} is not a copula (a proper quasi-copula "
                              f"for k in ({lo:g}, {hi:g})); refusing to sample")
    # two adjacent doubles in [1/2, 1) lie 2**-53 apart and their midpoint is
    # one of them, so a bracket that narrow cannot shrink any further
    if not 2.0 ** -53 <= inv_tol < np.inf:
        raise ValueError("inv_tol must be finite and at least 2**-53")
    rng = np.random.default_rng(seed)
    draw_u = rng.random(count)
    order = np.argsort(draw_u)
    u = draw_u[order]
    p = rng.random(count)[order]
    h = DERIV_STEP
    base = np.minimum(u, 1.0 - h)
    x = np.stack([base + h, base])

    def cond(pair, v):
        f = func(pair, v)
        return _finite((f[0] - f[1]) / h, "conditional CDF")

    levels = grid_nodes(PROBE_LEVELS)[1:, None]
    block = min(max(PROBE_BLOCK // count, 1), PROBE_LEVELS)
    probe = np.concatenate([cond(x[:, None], levels[i:i + block])
                            for i in range(0, PROBE_LEVELS, block)])
    # largest drop between consecutive levels, from 0 below the first
    worst = min([0.0, *np.diff(probe, axis=0, prepend=0.0).min(axis=1).tolist()])
    if worst < -MONO_TOL:
        raise NotMonotoneError(
            f"conditional CDF decreases by {-worst:.3g} (> {MONO_TOL:g}); "
            "the evaluator is not 2-increasing"
        )

    # bracket [lo, lo + width] in units of 1/32 while its midpoint is a level
    lo = np.zeros(count, dtype=np.intp)
    width = PROBE_LEVELS
    while width > 1 and width / PROBE_LEVELS > inv_tol:
        width //= 2
        lo += np.where(probe[lo + width - 1, np.arange(count)] < p, width, 0)
    hi = (lo + width) / PROBE_LEVELS
    lo = lo / PROBE_LEVELS
    while float((hi - lo).max()) > inv_tol:
        mid = 0.5 * (lo + hi)
        take = cond(x, mid) < p
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    v = np.empty(count)
    v[order] = 0.5 * (lo + hi)
    return np.column_stack([draw_u, v])
