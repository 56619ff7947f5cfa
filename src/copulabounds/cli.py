"""Command-line front end.

Evaluates measures, tabulates envelopes and attainable regions, audits the
copula axioms, and samples supports; every command emits CSV (comma
separated, LF line endings, floats at six decimals) to stdout or --out.

Exit codes: 0 success, 2 usage or spec-parse errors, 3 semantic
rejection: every ValueError a command raises on its argument values
(out-of-range parameters, invalid specs, sampling a proper quasi-copula),
a size too large to allocate, and an --out path that cannot be written.
Every error is one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from dataclasses import dataclass

import numpy as np

from . import concordance, core, effectiveness, regions


class UsageError(ValueError):
    """The arguments are malformed or contradict each other."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage and exiting; subparsers
    are built from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _format_column(col: np.ndarray) -> list:
    """Cells of one column by its dtype: bools as true/false, floats at six
    decimals with negative zero printed as zero, anything else by str.

    Envelope tables repeat a few values many times over, so floats and
    bools are formatted once per distinct value and then indexed; equal
    values (-0.0 and 0.0 among them) print alike.
    """
    if col.dtype.kind not in "bf":
        return [str(x) for x in col.tolist()]
    uniques, inverse = np.unique(col, return_inverse=True)
    if col.dtype == bool:
        cells = ["true" if x else "false" for x in uniques.tolist()]
    else:
        cells = [f"{x:.6f}" for x in uniques.tolist()]
        cells = ["0.000000" if c == "-0.000000" else c for c in cells]
    return np.asarray(cells, dtype=object)[inverse].tolist()


@dataclass
class CsvTable:
    """Header names and one equal-length sequence of values per column."""

    header: list
    columns: list

    def render(self) -> str:
        rows = zip(*(_format_column(np.asarray(col)) for col in self.columns))
        return "\n".join([",".join(self.header), *map(",".join, rows)]) + "\n"


def _load_shuffle(path: str) -> core.ShuffleSpec:
    """Shuffle file: one line per piece ``t_start,t_end,target_index,orientation``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read shuffle file {path}: {exc}") from exc
    pieces = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise UsageError(f"bad shuffle line {ln!r}: expected 4 fields")
        try:
            pieces.append((float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3])))
        except ValueError as exc:
            raise UsageError(f"bad shuffle line {ln!r}: {exc}") from exc
    if not pieces:
        raise UsageError(f"shuffle file {path} has no pieces")
    # a NaN start passes the contiguity test below and never becomes a cut
    if any(np.isnan(p[0]) for p in pieces):
        raise core.InvalidSpecError("shuffle cuts must not be NaN")
    pieces.sort(key=lambda p: p[0])
    cuts = [pieces[0][0]]
    for start, end, _, _ in pieces:
        if abs(start - cuts[-1]) > 1e-9:
            raise UsageError("shuffle pieces must tile [0, 1] contiguously")
        cuts.append(end)
    return core.ShuffleSpec(tuple(cuts),
                            tuple(p[2] for p in pieces),
                            tuple(p[3] for p in pieces))


_FIXED = {f.label: f for f in (core.W, core.M, core.PI)}


def parse_copula_spec(text: str) -> core.BivariateFunction:
    """Grammar: W | M | Pi | f-lower:<phi> | f-upper:<phi> | g-lower:<gamma>
    | g-upper:<gamma> | extremal:<kind>,<a>,<b>,<c> | shuffle:<file>."""
    if text in _FIXED:
        return _FIXED[text]
    name, sep, rest = text.partition(":")
    if not sep:
        raise UsageError(f"unknown copula spec {text!r}")
    if name == "shuffle":
        return core.ShuffleOfMin(_load_shuffle(rest))
    if name == "extremal":
        parts = rest.split(",")
        if len(parts) != 4:
            raise UsageError(f"extremal spec needs kind,a,b,c, got {rest!r}")
        try:
            a, b, c = (float(x) for x in parts[1:])
        except ValueError as exc:
            raise UsageError(f"bad extremal parameters {rest!r}") from exc
        return core.ExtremalCopula(core.ExtremalSpec(a, b, c, parts[0]))
    try:
        param = float(rest)
    except ValueError as exc:
        raise UsageError(f"bad parameter in spec {text!r}") from exc
    if name not in effectiveness.ENVELOPES:
        raise UsageError(f"unknown copula spec {text!r}")
    return effectiveness.ENVELOPES[name](param)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> CsvTable:
    func = parse_copula_spec(args.spec)
    quad = concordance.QuadratureConfig(args.n)
    if args.measure == "phi":
        value = concordance.spearman_footrule(func, quad)
    elif args.measure == "gamma":
        value = concordance.gini_gamma(func, quad)
    else:
        value = concordance.blomqvist_beta(func)
    return CsvTable(["measure", "spec", "value"], [[args.measure], [args.spec], [value]])


def cmd_grid(args) -> CsvTable:
    n = core._whole(args.n, "grid resolution", 2)
    func = effectiveness.ENVELOPES[args.bound](args.param)
    t = core.grid_nodes(n)
    # on the broadcast grid each per-axis term is computed once per node; the
    # operations are elementwise, so values equal those of the flat columns
    values, codes = func._evaluate(t[:, None], t[None, :], codes=True)
    return CsvTable(["a", "b", "value", "region"],
                    [np.repeat(t, n + 1), np.tile(t, n + 1), values.ravel(),
                     np.asarray(func.LABELS, dtype=object)[codes.ravel()]])


def cmd_table1(args) -> CsvTable:
    rows = effectiveness.table_rows(args.n)
    return CsvTable(["kind", "k", "m"],
                    [[r.kind for r in rows], [r.k for r in rows], [r.m for r in rows]])


def cmd_region(args) -> CsvTable:
    if not (0.0 < args.step <= 0.1):
        raise core.OutOfRangeError("step must lie in (0, 0.1]")
    if args.pair == "phi-beta":
        (lo_k, hi_k), range_fn = concordance.FOOTRULE_RANGE, regions.beta_range_given_footrule
    else:
        (lo_k, hi_k), range_fn = concordance.GINI_RANGE, regions.beta_range_given_gini
    # round up, so that the last k, clipped to hi_k, reaches the top
    count = np.ceil((hi_k - lo_k) / args.step - 1e-9)
    if not np.isfinite(count):
        raise core.OutOfRangeError(f"step {args.step:g} is too small")
    ks = np.minimum(lo_k + args.step * np.arange(int(count) + 1), hi_k)
    beta_lo, beta_hi = zip(*(range_fn(k) for k in ks.tolist()))
    return CsvTable(["k", "beta_lo", "beta_hi"], [ks, beta_lo, beta_hi])


def _draw(func, count: int, seed: int) -> np.ndarray:
    if isinstance(func, core.ExtremalCopula):
        return core.sample_shuffle(func.as_shuffle(), count, seed)
    if isinstance(func, core.ShuffleOfMin):
        return core.sample_shuffle(func.spec, count, seed)
    if isinstance(func, core.FrechetUpper):
        return core.sample_shuffle(core.IDENTITY_SHUFFLE, count, seed)
    if isinstance(func, core.FrechetLower):
        return core.sample_shuffle(core.REVERSAL_SHUFFLE, count, seed)
    if isinstance(func, core.Independence):
        rng = np.random.default_rng(seed)
        return rng.random((count, 2))
    return core.sample_conditional(func, count, seed)


def cmd_sample(args) -> CsvTable:
    func = parse_copula_spec(args.spec)
    count = core._whole(args.count, "count", 1)
    seed = core._whole(args.seed, "seed", 0)
    pts = _draw(func, count, seed)
    return CsvTable(["u", "v"], [pts[:, 0], pts[:, 1]])


def cmd_check(args) -> CsvTable:
    func = parse_copula_spec(args.spec)
    report = core.check_quasicopula(func, n=args.n, tol=args.tol)
    lo, hi = report.worst_rectangle
    row = (report.is_quasicopula, report.is_two_increasing, report.worst_volume,
           lo.u, lo.v, hi.u, hi.v,
           report.lipschitz_violation, report.margin_violation)
    return CsvTable(["is_quasicopula", "is_two_increasing", "worst_volume",
                     "lo_u", "lo_v", "hi_u", "hi_v",
                     "lipschitz_violation", "margin_violation"], [[x] for x in row])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="copulabounds",
        description="Envelopes of copulas with a fixed footrule or Gini gamma; CSV output.",
    )
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a measure of a copula spec")
    p.add_argument("measure", choices=["phi", "gamma", "beta"])
    p.add_argument("spec")
    p.add_argument("--n", type=int, default=2048, help="quadrature panels")

    p = sub.add_parser("grid", help="tabulate an envelope on an n x n node grid")
    p.add_argument("bound", choices=list(effectiveness.ENVELOPES))
    p.add_argument("param", type=float)
    p.add_argument("n", type=int)

    p = sub.add_parser("table1", help="effectiveness of both measures on the canonical k grid")
    p.add_argument("--n", type=int, default=2048, help="Simpson panels per axis")

    p = sub.add_parser("region", help="attainable (measure, beta) boundary curves")
    p.add_argument("pair", choices=["phi-beta", "gamma-beta"])
    p.add_argument("--step", type=float, default=0.05)

    p = sub.add_parser("sample", help="sample a copula spec (quasi-copulas are refused)")
    p.add_argument("spec")
    p.add_argument("count", type=int)
    p.add_argument("seed", type=int, nargs="?", default=0)

    p = sub.add_parser("check", help="audit the quasi-copula axioms on a grid")
    p.add_argument("spec")
    p.add_argument("n", type=int, nargs="?", default=200)
    p.add_argument("tol", type=float, nargs="?", default=1e-9)

    return parser


# one parser serves the process, built on the first ``main`` call; commands
# are looked up by name at dispatch, so a patched ``cmd_*`` takes effect
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # opened before the command runs, as a shell redirect is, so an
        # unwritable path fails before the work
        with (open(args.out, "w", encoding="utf-8", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            fh.write(globals()[f"cmd_{args.command}"](args).render())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
