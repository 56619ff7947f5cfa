import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copulabounds import cli, effectiveness

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_reference_values(capsys):
    code, out, _ = run_cli(capsys, "eval", "phi", "M")
    assert code == 0
    assert out == "measure,spec,value\nphi,M,1.000000\n"
    code, out, _ = run_cli(capsys, "eval", "gamma", "W")
    assert out.splitlines()[1] == "gamma,W,-1.000000"
    code, out, _ = run_cli(capsys, "eval", "beta", "Pi")
    assert out.splitlines()[1] == "beta,Pi,0.000000"


def test_eval_extremal_spec(capsys):
    code, out, _ = run_cli(capsys, "eval", "beta", "extremal:lower,0.5,0.5,0.25")
    assert code == 0
    assert out.splitlines()[1].endswith("0.000000")


@pytest.mark.xfail(strict=True, reason=(
    "eval writes the spec unquoted, so a spec with commas splits into more "
    "fields than the header has; quoting it changes stdout that "
    "bench/data/golden.json pins"))
def test_eval_rows_have_as_many_fields_as_the_header(capsys):
    code, out, _ = run_cli(capsys, "eval", "phi", "extremal:lower,0.3,0.6,0.1")
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert len(row) == len(header)


def test_grid_centre_row_and_endpoints(capsys):
    code, out, _ = run_cli(capsys, "grid", "f-upper", "0.0", "2")
    assert code == 0
    assert "0.500000,0.500000,0.408248,D4" in out
    assert out.splitlines()[0] == "a,b,value,region"
    assert len(out.splitlines()) == 1 + 9

    code, out, _ = run_cli(capsys, "grid", "g-upper", "-1", "10")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for a, b, value, region in rows:
        assert float(value) == pytest.approx(max(0.0, float(a) + float(b) - 1.0), abs=1e-6)

    code, out, _ = run_cli(capsys, "grid", "f-lower", "1.0", "10")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for a, b, value, region in rows:
        assert float(value) == pytest.approx(min(float(a), float(b)), abs=1e-6)
        assert region == "none"


def test_grid_lower_gamma_regions_follow_reflection(capsys):
    code, out, _ = run_cli(capsys, "grid", "g-lower", "0.0", "2")
    assert code == 0
    centre = [r for r in out.splitlines()[1:] if r.startswith("0.500000,0.500000")]
    assert centre[0].endswith("O5")


@pytest.mark.parametrize("bound,param", [("f-upper", "-0.45"), ("f-upper", "0.25"),
                                         ("f-lower", "0.3"), ("g-upper", "-0.6"),
                                         ("g-upper", "-1"), ("g-lower", "0.7")])
def test_grid_columns_equal_flat_evaluation(bound, param):
    # grid evaluates on the broadcast node grid; values must be bitwise those
    # of the flat (a, b) columns, labels those of their region codes
    func = effectiveness.ENVELOPES[bound](float(param))
    for n in ("37", "64"):
        args = cli.build_parser().parse_args(["grid", bound, param, n])
        a, b, value, region = cli.cmd_grid(args).columns
        np.testing.assert_array_equal(value.view(np.uint64), func(a, b).view(np.uint64))
        assert region.tolist() == [func.LABELS[c] for c in func._region_codes(a, b)]


def test_table1_shape(capsys):
    code, out, _ = run_cli(capsys, "table1", "--n", "128")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "kind,k,m"
    assert len(lines) == 1 + 27
    assert lines[1].startswith("footrule,-0.500000,")
    assert lines[-1].startswith("gini,1.000000,")


def test_region_curves(capsys):
    code, out, _ = run_cli(capsys, "region", "phi-beta", "--step", "0.1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "k,beta_lo,beta_hi"
    assert "-0.500000,-1.000000,-1.000000" in lines
    assert "1.000000,1.000000,1.000000" in lines
    code, out, _ = run_cli(capsys, "region", "gamma-beta", "--step", "0.1")
    assert "-1.000000,-1.000000,-1.000000" in out.splitlines()
    # a step that does not divide the range still ends on the top of it, once
    for pair, step, below in (("gamma-beta", "0.09", "0.980000"), ("phi-beta", "0.07", "0.970000")):
        code, out, _ = run_cli(capsys, "region", pair, "--step", step)
        assert code == 0
        assert out.splitlines()[-1] == "1.000000,1.000000,1.000000"
        assert out.splitlines()[-2].startswith(below + ",")
    code, _, err = run_cli(capsys, "region", "phi-beta", "--step", "0.5")
    assert code == 3
    # a step so small that the number of steps overflows fails the same way
    for step in ("1e-320", "1e-200"):
        code, out, err = run_cli(capsys, "region", "phi-beta", "--step", step)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_sample_comonotone_rows_coincide(capsys):
    code, out, _ = run_cli(capsys, "sample", "M", "10", "7")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 10
    for row in rows:
        u, v = row.split(",")
        assert u == v


def test_sample_rejects_proper_quasi_copula(capsys):
    # all but the first lie so near an end of their QUASI interval (f-upper
    # above about 0.2425, the gamma envelopes within about 0.011 of 0) that a
    # 201^2 grid audit finds no negative cell mass there
    for spec in ("f-upper:0.0", "g-upper:-0.001", "f-upper:0.2499", "g-lower:0.001",
                 "f-upper:0.245", "g-upper:-0.01"):
        code, out, err = run_cli(capsys, "sample", spec, "10", "1")
        assert (code, out) == (3, ""), spec
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a copula" in err


def test_sample_lower_footrule_support(capsys):
    code, out, _ = run_cli(capsys, "sample", "f-lower:0.25", "400", "42")
    assert code == 0
    pts = np.array([[float(x) for x in row.split(",")] for row in out.splitlines()[1:]])
    u, v = pts[:, 0], pts[:, 1]
    q = (1.0 - 0.25) / 6.0
    ok = ((u * v >= q - 3e-3) & ((1 - u) * (1 - v) >= q - 3e-3)) | (np.abs(u + v - 1) <= 3e-3)
    assert ok.all()


def test_sample_is_deterministic(capsys):
    _, one, _ = run_cli(capsys, "sample", "extremal:lower,0.5,0.5,0.5", "50", "3")
    _, two, _ = run_cli(capsys, "sample", "extremal:lower,0.5,0.5,0.5", "50", "3")
    assert one == two


@pytest.mark.parametrize("spec,seed,digest,on_support", [
    ("W", "1", "b711dfe77b254f7891fe04206393fe27fc453ba88c6105a8323f68d0a989bbeb",
     lambda u, v: np.abs(u + v - 1.0) <= 1.5e-6),
    ("Pi", "2", "37ff6bd4b00af8bafbee8edecf3077465eebe457cb8be70cb6bb3e1b83a3a444",
     lambda u, v: (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (v <= 1.0)),
])
def test_sample_countermonotone_and_independence(capsys, spec, seed, digest, on_support):
    code, out, _ = run_cli(capsys, "sample", spec, "5", seed)
    assert code == 0
    assert run_cli(capsys, "sample", spec, "5", seed)[1] == out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    pts = np.array([[float(x) for x in row.split(",")] for row in out.splitlines()[1:]])
    assert pts.shape == (5, 2) and on_support(pts[:, 0], pts[:, 1]).all()


def test_check_reference_invocations(capsys):
    code, out, _ = run_cli(capsys, "check", "W", "50", "1e-9")
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert fields[0] == "true" and fields[1] == "true"

    code, out, _ = run_cli(capsys, "check", "g-upper:0.25", "200", "1e-9")
    assert out.splitlines()[1].split(",")[1] == "true"

    code, out, _ = run_cli(capsys, "check", "g-upper:-0.5", "200", "1e-9")
    fields = out.splitlines()[1].split(",")
    assert fields[0] == "true" and fields[1] == "false"


def test_check_defaults(capsys):
    code, out, _ = run_cli(capsys, "check", "Pi")
    assert code == 0 and out.splitlines()[1].split(",")[0] == "true"


def test_positional_values_have_no_flag_spelling(capsys):
    for argv in ("sample M 5 --seed 7", "check W --n 50", "check W 50 --tol 1e-8"):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_parse_errors_exit_two(capsys):
    # among them an unknown family with a numeric parameter and a non-numeric anchor
    for spec in ("bogus", "f-lower:abc", "extremal:lower,0.5,0.5", "clayton:2",
                 "extremal:lower,x,0.5,0.1"):
        code, out, err = run_cli(capsys, "eval", "phi", spec)
        assert (code, out) == (2, ""), spec
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_semantic_errors_exit_three(capsys):
    for argv in ("grid f-lower 2.0 4", "eval phi extremal:lower,0.5,0.5,0.6", "sample M 0 1",
                 "eval phi M --n 3", "check M 1", "sample M 10 -1", "table1 --n 63",
                 "check extremal:lower,0.3,0.5,nan",
                 "check M 20 nan", "check M 20 inf", "grid f-upper 0.1 1"):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_spec_parser_reads_the_envelope_table():
    for name, cls in effectiveness.ENVELOPES.items():
        for k in ("-0.5", "-0.25", "0", "0.1", "0.75", "1"):
            func = cli.parse_copula_spec(f"{name}:{k}")
            assert isinstance(func, cls) and func.label == f"{name}:{k}"
    for kind, (upper, lower) in (("footrule", ("f-upper", "f-lower")),
                                 ("gini", ("g-upper", "g-lower"))):
        bounds = effectiveness._bounds_for(kind, 0.2)
        assert tuple(map(type, bounds)) == (effectiveness.ENVELOPES[upper],
                                            effectiveness.ENVELOPES[lower])


def test_module_entry_point_in_a_fresh_interpreter(capsys):
    """``python -m copulabounds.cli`` imports cleanly on its own and keeps
    the exit-code contract."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "copulabounds.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    proc = run("grid", "f-upper", "0.0", "2")
    assert (proc.returncode, proc.stdout) == run_cli(capsys, "grid", "f-upper", "0.0", "2")[:2]
    assert proc.returncode == 0, proc.stderr
    proc = run("grid", "f-upper", "2", "4")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: ")


def test_usage_errors_exit_two(capsys):
    code, out, err = run_cli(capsys, "grid", "f-upper")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["grid", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: copulabounds grid")


def test_too_large_size_exits_three(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(cli, "cmd_grid", exhausted)
    code, out, err = run_cli(capsys, "grid", "f-upper", "0.1", "200000")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unwritable_out_exits_three(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(capsys, "--out", str(path), "eval", "beta", "W")
        assert (code, out) == (3, ""), path
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unwritable_out_fails_before_the_command_runs(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cmd_table1", lambda args: calls.append(args))
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "--out", str(path), "table1", "--n", "256")
    assert (code, out, calls) == (3, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_out_writes_lf_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code = cli.main(["--out", str(path), "eval", "beta", "W"])
    capsys.readouterr()
    assert code == 0
    raw = path.read_bytes()
    assert raw == b"measure,spec,value\nbeta,W,-1.000000\n"
    assert b"\r" not in raw


def test_one_parser_serves_repeated_calls(tmp_path, capsys, monkeypatch):
    # main reuses one parser; a usage error, --help or a rejected value must
    # leave nothing behind that changes a later call
    path = tmp_path / "out.csv"
    argvs = ["eval beta M", "grid f-upper", "grid --help", "eval phi bogus",
             "check W 50 --n 100", "grid f-lower 2.0 4", f"--out {path} eval beta W"]

    def outcome(argv):
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    passes = [[outcome(argv) for argv in argvs] + [path.read_bytes()] for _ in range(2)]
    assert passes[0] == passes[1]
    assert [code for code, _, _ in passes[0][:-1]] == [0, 2, "SystemExit(0)", 2, 2, 3, 0]

    monkeypatch.setattr(cli, "cmd_eval", lambda args: cli.CsvTable(["patched"], [[1]]))
    assert outcome("eval beta M") == (0, "patched\n1\n", "")
    assert cli.build_parser() is not cli.build_parser()


def test_shuffle_file_round_trip(tmp_path, capsys):
    path = tmp_path / "half.shuffle"
    path.write_text("0.0,0.5,2,1\n0.5,1.0,1,1\n")
    code, out, _ = run_cli(capsys, "eval", "phi", f"shuffle:{path}")
    assert code == 0
    assert out.splitlines()[1].endswith("-0.500000")
    code, out, _ = run_cli(capsys, "sample", f"shuffle:{path}", "20", "5")
    assert code == 0
    pts = np.array([[float(x) for x in row.split(",")] for row in out.splitlines()[1:]])
    image = np.where(pts[:, 0] < 0.5, pts[:, 0] + 0.5, pts[:, 0] - 0.5)
    # each coordinate is printed at six decimals, so allow one ulp of that
    assert np.abs(pts[:, 1] - image).max() <= 1e-6


def test_shuffle_file_errors(tmp_path, capsys):
    path = tmp_path / "bad.shuffle"
    # a gap, a 3-field line, a non-numeric field and a file of only comments
    for text in ("0.0,0.4,2,1\n0.5,1.0,1,1\n", "0.0,0.5,2\n0.5,1.0,1,1\n",
                 "0.0,half,2,1\n0.5,1.0,1,1\n", "# no pieces\n\n# at all\n"):
        path.write_text(text)
        code, out, err = run_cli(capsys, "eval", "phi", f"shuffle:{path}")
        assert (code, out) == (2, ""), text
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert run_cli(capsys, "eval", "phi", "shuffle:/nonexistent/file")[0] == 2
    path.write_bytes(b"0.0,1.0,1,1\n\xff\n")
    assert run_cli(capsys, "eval", "phi", f"shuffle:{path}")[:2] == (2, "")
    # NaN cuts are a semantic rejection, not a silent nan or a cut replaced by
    # 0, also as the start of a later line, which never becomes a cut
    for text in ("0.0,nan,2,1\nnan,1.0,1,1\n", "nan,0.5,2,1\n0.5,1.0,1,1\n",
                 "0,0.5,1,1\nnan,1,2,1\n"):
        path.write_text(text)
        code, out, err = run_cli(capsys, "eval", "phi", f"shuffle:{path}")
        assert (code, out) == (3, ""), text
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_shuffle_file_skips_blank_and_comment_lines(tmp_path, capsys):
    path = tmp_path / "half.shuffle"
    path.write_text("# half shift\n\n0.0,0.5,2,1\n   \n# second piece\n0.5,1.0,1,1\n")
    code, out, _ = run_cli(capsys, "eval", "phi", f"shuffle:{path}")
    assert code == 0
    assert out.splitlines()[1].endswith("-0.500000")


def test_identical_invocations_are_byte_identical(capsys):
    _, one, _ = run_cli(capsys, "region", "gamma-beta", "--step", "0.05")
    _, two, _ = run_cli(capsys, "region", "gamma-beta", "--step", "0.05")
    assert one == two


def test_negative_zero_never_printed(capsys):
    _, out, _ = run_cli(capsys, "grid", "f-lower", "-0.5", "4")
    assert "-0.000000" not in out


# SHA-256 of stdout recorded before the CSV writer became column-wise. The
# grids cover every bound at an active and at a W/M short-circuit parameter;
# k/128 nodes are exact ties at the seventh decimal, and the worst volume of
# `check W 20` would print as -0.000000 without the negative-zero rule.
PINNED_STDOUT = (
    ("grid f-upper -0.2 12", "8b1fb007fe24fa1b31ff417b83a38e16df4f8ee07c5c6af80f4b905ccd4e0184"),
    ("grid f-upper 0.5 10", "91e880aeb36865287cae1cdad87396134df02aa6f60104dfe9c022f3dca02bc1"),
    ("grid f-lower 0.25 12", "ff7cd446aa9c80621a538b1ef6a6792ee04a8b15f8e9b4aafcdf4cad017a483d"),
    ("grid f-lower 1.0 12", "0a0606b9fa048989f6990687d378226ea781c3364117b6892c6326361ebb49ff"),
    ("grid g-upper -0.3 12", "7c790a4288ddda08bd620876eb2230911bcab8d9fa9de6208ad27910d311ce11"),
    ("grid g-upper -1.0 12", "849ea5e9ee4e92cc7c2c666b9bee8b75ac8b921ec0620dbf2d9e0894d6786683"),
    ("grid g-upper 0.7 9", "d9a2d9e53248f36da5a15e0ccc635e2dcf6d3529a9e71910c06e55435e9fc0fa"),
    ("grid g-lower 0.3 12", "4410cde665f9ad44a45e991ad8629b7de2d82e62c9e0599460d4035703543e56"),
    ("grid g-lower -0.8 12", "61dc4794fd21160b589a4f59a2968f06e52bbf7284529588ab64ed674940a732"),
    ("grid g-lower 1.0 11", "df198a31f2d3ce4b94ae64a101ec2d384fbc769b8a6d21d050cec9b8c53ebcc1"),
    ("grid f-lower -0.5 4", "fdba00d2e38e9a6cd242dd12b8aa63540598e365700b74f89ceb0b0da4e25f20"),
    ("grid g-upper 0.1 128", "caf404ea30cc6b669f2783a124e9ce57043004d259dd475a608bc033082e8246"),
    ("check g-upper:-0.5 50", "3b40fcb0da7fa3bf478fa6dc061f238fb4ed2a9be86ababce3a207d589a26ad1"),
    ("check f-lower:0.25 40 1e-9", "63684e1a858799774a1627de98d30e941efe7a0a87084869ca6a4ab366912991"),
    ("check W 20", "3957a54c30cb2accf3054d3f0be65fa99fa10f8e14a257f0969c5bc5b2f5caa9"),
    ("sample g-upper:0.25 50 7", "aba420c576b585c344978412fd19fd404b9616d300cd74c37e3fe0a7ffcc8463"),
    ("sample extremal:upper,0.3,0.6,0.1 30 2", "6d5ed249146532f25f33994e940f60f5aace5e05a4358debdb1e075212ab6f04"),
    ("region gamma-beta --step 0.05", "ef8d25f663694837a8b25920a2fb69ace1ec316c60065c19f31995f50bee1cda"),
    ("region phi-beta --step 0.02", "3e909c54dc9e9ed24867d94e2ac94f34e8af917c1bf5bceb6e2f5145eac7bf60"),
    ("eval gamma f-upper:-0.3 --n 256", "1f0baecf3b9dfeb328345d22575f4f36df5b50be4809ae3ff9aa58a5d9de7c15"),
    ("eval beta g-lower:0.3", "d842fd3332915672e694fbd801d96b92c78ee672961908f199ef56ce84b9a967"),
    ("table1 --n 64", "3501e35e288560708433335a0c35457f714e5f6cd9e9cdcd268b24750c5eb988"),
    # region labels of every piece: D1..D7, O1..O9 and the reflected O1..O9
    ("grid f-upper -0.45 40", "cd910dd2274c786fd2d3abcd894a71f62d15b44f314ba12fbd6c4cae0362bafc"),
    ("grid g-upper -0.85 40", "47f7d7e76282456a9c1ddcd50a03149cb907a94859f747eaf3fae2f28900f228"),
    ("grid g-lower 0.85 40", "8318f113cddffe59864305c652696325f221f9fe9c953b6c2133dcbf6caadb5c"),
    # recorded before cells were formatted per distinct value
    ("grid f-upper -0.3 152", "abafbc2fdb6c18e5d9d864c4b15282866b902902f82b77a4e4ea25b9aa106fed"),
    ("grid g-lower -0.458 144", "a5c198cbdfd3d0b16c979f8f681e10af09b6d6a94b470f4f60fef4ca135029bf"),
    # at the parameter where O1 and D3 / D5 vanish, each still labels one node
    # on its single tie point: (0.25, 0.75) and (0.6, 0.8) / (0.8, 0.6)
    ("grid g-upper -0.75 4", "fb52dd25c8d6b89d0fe4e50947a262298a320e6f45921935571c2e223709b0ff"),
    ("grid f-upper -0.2 5", "4e10bfabbfa04b9ae4cac221e006bc1c188959fa95e0d6d6192bf2849c0ab535"),
)


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT, ids=[a for a, _ in PINNED_STDOUT])
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _render_per_cell(table):
    """The CSV writer as it was before it formatted by distinct value."""
    def cells(col):
        if col.dtype == bool:
            return ["true" if x else "false" for x in col.tolist()]
        if col.dtype.kind == "f":
            out = [f"{x:.6f}" for x in col.tolist()]
            return ["0.000000" if c == "-0.000000" else c for c in out]
        return [str(x) for x in col.tolist()]

    rows = zip(*(cells(np.asarray(col)) for col in table.columns))
    return "\n".join([",".join(table.header), *map(",".join, rows)]) + "\n"


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-7, -5e-7]),
    st.floats(-5e-7, 0.0, exclude_min=True, exclude_max=True),  # prints -0.000000
)
LABELS = ("none", "D1", "O5", "")


@st.composite
def csv_columns(draw, size):
    """One column of ``size`` cells, drawn from a small pool so values repeat."""
    kind = draw(st.sampled_from(["float64", "float32", "int", "bool", "str", "labels"]))
    if kind == "labels":
        codes = draw(st.lists(st.integers(0, len(LABELS) - 1), min_size=size, max_size=size))
        return np.asarray(LABELS, dtype=object)[codes]
    cell = {"float64": FLOATS, "float32": FLOATS, "int": st.integers(-10**12, 10**12),
            "bool": st.booleans(), "str": st.text(max_size=4)}[kind]
    pool = draw(st.lists(cell, min_size=1, max_size=5))
    values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    if kind == "float32":
        with np.errstate(over="ignore"):
            return np.asarray(values, dtype=np.float32)
    return values if kind in ("bool", "str") else np.asarray(values)


@given(st.integers(1, 30).flatmap(lambda n: st.lists(csv_columns(n), min_size=1, max_size=4)))
@settings(max_examples=300, deadline=None)
def test_render_matches_per_cell_formatting(columns):
    table = cli.CsvTable([f"c{i}" for i in range(len(columns))], columns)
    assert table.render() == _render_per_cell(table)
