"""Workload inputs, closed-loop jobs and output validators.

A workload is a fixed job: a list of operations run one after another, each
started only after the previous one returned. ``build`` makes the job from a
seed; the seed only draws parameters and order, never the job's shape, so the
work per job stays the same from seed to seed.

- ``table``: the 27 canonical effectiveness rows at quadrature ``TABLE_N``,
  one ``effectiveness_score`` call per row, in ``table_rows`` order.
- ``grid``: ``cli.main(["grid", bound, param, n])`` for each of the four
  bounds, twice with active pieces and once with a parameter that
  short-circuits to W or M. The twelve calls take twelve distinct sizes n,
  so call latencies form a continuum and p50 does not jump between the
  two modes of a narrow cluster when the host's speed shifts.
- ``session``: 60 short CLI commands in fixed proportions. About 60% are
  millisecond commands (eval, region, rejected inputs), 20% medium (check,
  shuffle-support and f-lower samples) and 20% gini-envelope samples.
  So p50 falls inside the fast block and p90 inside the slow one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

from copulabounds import cli, core, effectiveness, footrule, gini

TABLE_N = 512
GRID_SIZES = tuple(64 + 8 * i for i in range(12))
SMOKE_GRID_SIZES = tuple(10 + 2 * i for i in range(12))
EVAL_N = 256
SAMPLE_COUNT = 2000
TABLE_GATE = 2e-3
EVAL_GATE = 2e-3
PRINT_SLACK = 1e-6

EVAL_SPECS = (
    "Pi", "M", "f-lower:-0.25", "f-lower:0.5", "f-upper:-0.3", "f-upper:0.1",
    "g-upper:-0.5", "g-upper:0.25", "g-lower:0.3", "extremal:lower,0.3,0.6,0.1",
)
# (argv, accepted exit codes, known defect): the README contract codes.
# The first four break that contract at the time this benchmark was written.
REJECTED = (
    (["eval", "phi", "M", "--n", "3"], (2, 3), True),
    (["check", "M", "1"], (2, 3), True),
    (["sample", "M", "10", "-1"], (2, 3), True),
    (["check", "extremal:lower,0.3,0.5,nan"], (3,), True),
    (["sample", "f-upper:0.0", "100", "1"], (3,), False),
    (["eval", "phi", "clayton:2"], (2,), False),
)
# (bound, active parameter range, short-circuit draw)
GRID_BOUNDS = (
    ("f-upper", (-0.5, 0.25), ("range", 0.25, 1.0)),
    ("f-lower", (-0.5, 1.0), ("choice", -0.5, 1.0)),
    ("g-upper", (-1.0, 0.5), ("range", 0.5, 1.0)),
    ("g-lower", (-0.5, 1.0), ("range", -1.0, -0.5)),
)
MEASURE_RANGE = {"phi": (-0.5, 1.0), "gamma": (-1.0, 1.0), "beta": (-1.0, 1.0)}
RANGE_LOW = {"phi-beta": -0.5, "gamma-beta": -1.0}


@dataclass
class Op:
    """One closed-loop operation: a table row or a ``cli.main`` argv."""

    kind: str
    argv: list
    expect: tuple = (0,)
    known_defect: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    latency: float
    code: object  # exit code, or the name of an uncaught exception
    output: object  # stdout text, or the row's m for table ops

    def digest(self) -> str:
        data = self.output if isinstance(self.output, str) else repr(self.output)
        return hashlib.sha256(data.encode()).hexdigest()


def _dec3(x: float) -> str:
    return f"{x:.3f}"


def _open(rng, lo, hi) -> float:
    """Draw from the open interval (lo, hi) at three decimals."""
    return float(np.clip(round(rng.uniform(lo, hi), 3), lo + 0.001, hi - 0.001))


def _extremal(rng, kind) -> str:
    a, b = (round(x, 3) for x in rng.uniform(0.1, 0.9, 2))
    c = round(rng.uniform(0.0, min(a, b, 1 - a, 1 - b)), 3)
    return f"extremal:{kind},{a},{b},{c}"


def _table_ops() -> list:
    ops = [Op("row", ["footrule", repr(float(k))]) for k in effectiveness.FOOTRULE_TABLE_KS]
    ops += [Op("row", ["gini", repr(float(k))]) for k in effectiveness.GINI_TABLE_KS]
    return ops


def _grid_ops(rng, sizes) -> list:
    sizes = iter(rng.permutation(sizes).tolist())
    ops = []
    for bound, (lo, hi), (how, s_lo, s_hi) in GRID_BOUNDS:
        params = [_open(rng, lo, hi), _open(rng, lo, hi)]
        if how == "choice":
            params.append(float(rng.choice([s_lo, s_hi])))
        else:
            params.append(round(rng.uniform(s_lo, s_hi), 3))
        for p, short in zip(params, (False, False, True)):
            n = next(sizes)
            ops.append(Op("grid", ["grid", bound, _dec3(p), str(n)],
                          meta={"bound": bound, "param": p, "n": n, "short": short}))
    return ops


def _session_ops(rng, small) -> list:
    count = 200 if small else SAMPLE_COUNT
    ops = []
    for spec in EVAL_SPECS:
        for measure in ("phi", "gamma"):
            ops.append(Op("eval", ["eval", measure, spec, "--n", str(EVAL_N)],
                          meta={"measure": measure, "spec": spec}))
    for spec in rng.choice(EVAL_SPECS, 4, replace=False):
        ops.append(Op("eval", ["eval", "beta", str(spec)], meta={"measure": "beta", "spec": str(spec)}))
    for pair in RANGE_LOW:
        for step in ("0.01", "0.02", "0.05"):
            ops.append(Op("region", ["region", pair, "--step", step],
                          meta={"pair": pair, "step": float(step)}))
    for argv, expect, defect in REJECTED:
        ops.append(Op("reject", list(argv), expect, defect))

    frechet = str(rng.choice(["W", "M", "Pi"]))
    checks = (  # (spec, n, known to be a copula)
        (f"f-upper:{_dec3(rng.uniform(-0.5, 1.0))}", 400, False),
        (f"g-upper:{_dec3(rng.uniform(-1.0, 1.0))}", 300, False),
        (f"g-lower:{_dec3(rng.uniform(-1.0, 1.0))}", 200, False),
        (f"f-lower:{_dec3(rng.uniform(-0.5, 1.0))}", 350, True),
        (_extremal(rng, str(rng.choice(["lower", "upper"]))), 250, True),
        (frechet, 300, True),
    )
    for spec, n, copula in checks:
        n = n // 4 if small else n
        ops.append(Op("check", ["check", spec, str(n)], meta={"copula": copula}))

    specs = ["W", "M", "Pi", _extremal(rng, "lower"), _extremal(rng, "upper"),
             f"f-lower:{_dec3(rng.uniform(-0.5, 1.0))}"]
    specs += [f"g-upper:{_dec3(rng.uniform(0.0, 0.499))}" for _ in range(6)]
    specs += [f"g-lower:{_dec3(rng.uniform(-0.499, 0.0))}" for _ in range(6)]
    for spec in specs:
        seed = int(rng.integers(0, 2**31))
        ops.append(Op("sample", ["sample", spec, str(count), str(seed)],
                      meta={"spec": spec, "count": count}))
    return [ops[i] for i in rng.permutation(len(ops))]


def build(workload: str, seed: int, small: bool = False) -> list:
    """The fixed job of ``workload`` for ``seed``; ``small`` is the smoke size."""
    rng = np.random.default_rng(seed)
    if workload == "table":
        return _table_ops()
    if workload == "grid":
        return _grid_ops(rng, SMOKE_GRID_SIZES if small else GRID_SIZES)
    if workload == "session":
        return _session_ops(rng, small)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running a job
# ---------------------------------------------------------------------------

def run_cli(argv) -> Outcome:
    """One in-process CLI call with stdout and stderr captured in memory.

    An uncaught exception is recorded by name: the console script would
    print a traceback and exit 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a contract breach, counted as a failure
            code = type(exc).__name__
        latency = time.perf_counter() - start
    return Outcome(latency, code, out.getvalue())


def run_row(argv, n) -> Outcome:
    start = time.perf_counter()
    try:
        m, code = effectiveness.effectiveness_score(argv[0], float(argv[1]), n).m, 0
    except Exception as exc:  # counted as a failure
        m, code = None, type(exc).__name__
    return Outcome(time.perf_counter() - start, code, m)


def run_job(ops, table_n=TABLE_N):
    """Run every op in order; returns (job wall seconds, outcomes)."""
    start = time.perf_counter()
    outcomes = [run_row(op.argv, table_n) if op.kind == "row" else run_cli(op.argv)
                for op in ops]
    return time.perf_counter() - start, outcomes


# ---------------------------------------------------------------------------
# Validation. Each validator returns (ok, abs error against a reference).
# ---------------------------------------------------------------------------

def _csv(text, header):
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError("bad CSV framing")
    return [ln.split(",") for ln in lines[1:-1]]


def _check_row(op, out, data):
    kind, k = op.argv[0], round(float(op.argv[1]), 1)
    ref = data["table"][(kind, k)]
    paper = data["paper"][(kind, k)]
    return abs(out - paper) <= TABLE_GATE, abs(out - ref)


_GRID_FUNCS = {
    "f-upper": (footrule.footrule_upper_bound, footrule.DELTA_LABELS),
    "f-lower": (footrule.footrule_lower_bound, ("none",)),
    "g-upper": (gini.gini_upper_bound, gini.OMEGA_LABELS),
    "g-lower": (gini.gini_lower_bound, gini.OMEGA_LABELS),
}


def _check_grid(op, out, data):
    n, p = op.meta["n"], op.meta["param"]
    rows = _csv(out, "a,b,value,region")
    if len(rows) != (n + 1) ** 2 or any(len(r) != 4 for r in rows):
        return False, None
    func, labels = _GRID_FUNCS[op.meta["bound"]]
    t = np.arange(n + 1) / n
    ab = np.array([(float(r[0]), float(r[1])) for r in rows])
    value = np.array([float(r[2]) for r in rows])
    a, b = np.repeat(t, n + 1), np.tile(t, n + 1)
    w, m = np.maximum(a + b - 1.0, 0.0), np.minimum(a, b)
    exact = np.asarray(func(p, t[:, None], t[None, :])).ravel()
    ok = (np.abs(ab[:, 0] - a).max() <= PRINT_SLACK and np.abs(ab[:, 1] - b).max() <= PRINT_SLACK
          and bool(np.all(value >= w - PRINT_SLACK)) and bool(np.all(value <= m + PRINT_SLACK))
          and all(r[3] in labels for r in rows))
    if op.meta["short"]:
        ok = ok and bool(np.all((np.abs(value - w) <= PRINT_SLACK) | (np.abs(value - m) <= PRINT_SLACK)))
    return ok, float(np.abs(value - exact).max())


def _check_eval(op, out, data):
    rows = _csv(out, "measure,spec,value")
    measure = op.meta["measure"]
    if len(rows) != 1 or rows[0][0] != measure:
        return False, None
    value = float(rows[0][-1])
    lo, hi = MEASURE_RANGE[measure]
    err = abs(value - data["eval"][f"{measure} {op.meta['spec']}"])
    return lo <= value <= hi and err <= EVAL_GATE, err


def _check_region(op, out, data):
    rows = np.array([[float(x) for x in r] for r in _csv(out, "k,beta_lo,beta_hi")])
    expected = int(round((1.0 - RANGE_LOW[op.meta["pair"]]) / op.meta["step"])) + 1
    ok = (rows.shape == (expected, 3) and bool(np.all(np.diff(rows[:, 0]) > 0))
          and bool(np.all(rows[:, 1] <= rows[:, 2] + PRINT_SLACK))
          and rows[:, 1:].min() >= -1.0 and rows[:, 1:].max() <= 1.0)
    return ok, None


def _check_check(op, out, data):
    rows = _csv(out, "is_quasicopula,is_two_increasing,worst_volume,lo_u,lo_v,hi_u,hi_v,"
                     "lipschitz_violation,margin_violation")
    if len(rows) != 1 or len(rows[0]) != 9:
        return False, None
    quasi, two_inc = rows[0][0], rows[0][1]
    ok = quasi == "true" and two_inc in ("true", "false")
    return ok and (two_inc == "true" or not op.meta["copula"]), None


def _check_sample(op, out, data):
    pts = np.array([[float(x) for x in r] for r in _csv(out, "u,v")])
    if pts.shape != (op.meta["count"], 2) or pts.min() < 0.0 or pts.max() > 1.0:
        return False, None
    spec = op.meta["spec"]
    if spec == "W":
        return bool(np.abs(pts.sum(axis=1) - 1.0).max() <= 2 * PRINT_SLACK), None
    if spec == "M":
        return bool(np.abs(pts[:, 0] - pts[:, 1]).max() <= 2 * PRINT_SLACK), None
    return True, None


def _check_reject(op, out, data):
    return out == "", None


VALIDATORS = {"row": _check_row, "grid": _check_grid, "eval": _check_eval,
              "region": _check_region, "check": _check_check,
              "sample": _check_sample, "reject": _check_reject}


def validate(op, outcome, data):
    """(ok, abs error or None, reason) for one op's first outcome.

    Beyond the validator, an op fails on an uncaught exception, an exit code
    outside ``op.expect``, and, for a command expected to succeed, stdout
    that differs from its recorded golden digest.
    """
    if outcome.code not in op.expect:
        return False, None, f"exit {outcome.code!r}, expected {op.expect}"
    golden = data["golden"].get(op.key)
    if golden is not None and op.expect == (0,) and golden["sha256"] != outcome.digest():
        return False, None, "stdout differs from golden digest"
    try:
        ok, err = VALIDATORS[op.kind](op, outcome.output, data)
    except (ValueError, IndexError, KeyError) as exc:
        return False, None, f"unparsable output: {exc}"
    return ok, err, "" if ok else "output failed validation"
