"""Regenerate the benchmark's reference data from the library in ``src/``.

    python3 bench/make_data.py

Writes ``bench/data/``:

- ``table_reference.json``: the 27 effectiveness rows at quadrature
  ``TABLE_REF_N`` (m_ref), beside the paper's 4-decimal table used as the 2e-3 gate;
- ``eval_reference.json``: phi, gamma and beta of every ``EVAL_SPECS`` entry
  by line quadrature at 2^20 panels;
- ``golden.json``: SHA-256 of stdout and the exit code of every grid and
  session command of seed 0, at full and at smoke size.

Each file records the commit it was made from. Regenerating the golden
digests accepts the current outputs as correct, so do it only when a change
is meant to alter the CLI's bytes.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from copulabounds import concordance, effectiveness  # noqa: E402
from copulabounds.cli import parse_copula_spec  # noqa: E402

PAPER = {  # effectiveness m of the source paper's table, four decimals
    "footrule": {-0.5: 0.7500, -0.4: 0.3718, -0.3: 0.2244, -0.2: 0.1352, -0.1: 0.0820,
                 0.0: 0.0574, 0.1: 0.0569, 0.2: 0.0763, 0.3: 0.1108, 0.4: 0.1562,
                 0.5: 0.2146, 0.6: 0.2895, 0.7: 0.3860, 0.8: 0.5130, 0.9: 0.6889,
                 1.0: 1.0000},
    "gini": {0.0: 0.0581, 0.1: 0.0633, 0.2: 0.0792, 0.3: 0.1059, 0.4: 0.1438,
             0.5: 0.1942, 0.6: 0.2587, 0.7: 0.3422, 0.8: 0.4565, 0.9: 0.6320,
             1.0: 1.0000},
}
TABLE_REF_N = 4096
EVAL_REF_N = 2 ** 20


def _write(name, payload):
    (run.DATA / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main():
    commit = run.git_commit()
    run.DATA.mkdir(exist_ok=True)

    rows = [[op.argv[0], float(op.argv[1]),
             effectiveness.effectiveness_score(op.argv[0], float(op.argv[1]), TABLE_REF_N).m]
            for op in workloads.build("table", 0)]
    _write("table_reference.json", {"commit": commit, "n": TABLE_REF_N, "rows": rows,
                                    "paper": PAPER, "gate": workloads.TABLE_GATE})

    quad = concordance.QuadratureConfig(EVAL_REF_N)
    values = {}
    for spec in workloads.EVAL_SPECS:
        func = parse_copula_spec(spec)
        values[f"phi {spec}"] = concordance.spearman_footrule(func, quad)
        values[f"gamma {spec}"] = concordance.gini_gamma(func, quad)
        values[f"beta {spec}"] = concordance.blomqvist_beta(func)
    _write("eval_reference.json", {"commit": commit, "n": EVAL_REF_N, "values": values})

    commands = {}
    for name in ("grid", "session"):
        for small in (False, True):
            for op in workloads.build(name, 0, small):
                outcome = workloads.run_cli(op.argv)
                commands[op.key] = {"sha256": outcome.digest(), "exit": outcome.code}
    _write("golden.json", {"commit": commit, "seed": 0, "commands": commands})


if __name__ == "__main__":
    main()
