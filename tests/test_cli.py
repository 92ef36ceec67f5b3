import argparse
import json
import math
import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from expfun.cli import _parser, main
from expfun.errors import SpecFileError


def write_spec(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


GAMMA_SPEC = {
    "drift": 0.0,
    "kill": 0.0,
    "tail": {"variant": "gamma_exp", "a": 1.0, "s": 1.5, "beta": 2.0},
}
UNIFORM_SPEC = {"drift": 1.0, "kill": 1.0, "tail": {"variant": "zero"}}
RECIPES = Path(__file__).resolve().parent.parent / "recipes"


def read_csv(path):
    lines = path.read_text().splitlines()
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    return lines[0], np.array(rows)


def test_solve_gamma_density_mode(tmp_path):
    spec = write_spec(tmp_path, GAMMA_SPEC)
    out = tmp_path / "out"
    rc = main(
        ["solve", "--spec", str(spec), "--delta", "0.99", "--cells", "1500",
         "--out", str(out), "--plot"]
    )
    assert rc == 0
    header, rows = read_csv(out / "density.csv")
    assert header == "x,k"
    # the density peaks near the mode (s-1)/beta = 1/4
    x_peak = rows[np.argmax(rows[:, 1]), 0]
    assert abs(x_peak - 0.25) < 0.05
    assert (out / "summary.txt").exists()
    ET.parse(out / "density.svg")  # well-formed SVG


def test_solve_uniform_is_flat(tmp_path):
    spec = write_spec(tmp_path, UNIFORM_SPEC)
    out = tmp_path / "o2"
    rc = main(
        ["solve", "--spec", str(spec), "--delta", "0.999", "--cells", "1500",
         "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out / "density.csv")
    assert np.max(np.abs(rows[:, 1] - 1.0)) <= 1e-2


def test_rejected_model_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, {"drift": 0.0, "kill": 0.0, "tail": {"variant": "zero"}})
    rc = main(["solve", "--spec", str(spec), "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "drift to -infinity" in err["message"]


def test_bad_flags_exit_2(tmp_path):
    spec = write_spec(tmp_path, UNIFORM_SPEC)
    assert main(["solve", "--spec", str(spec), "--delta", "1.5"]) == 2
    assert main(["solve", "--spec", str(spec), "--cells", "3"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["solve", "--spec", str(tmp_path / "missing.json")]) == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    # a coarse grid with a massive compound Poisson rate turns the
    # back-substitution diagonal negative
    spec = write_spec(
        tmp_path,
        {"drift": 1.0, "kill": 0.0,
         "tail": {"variant": "compound_poisson_exp", "rate": 40.0, "decay": 1.0}},
    )
    rc = main(["solve", "--spec", str(spec), "--delta", "0.99", "--cells", "200",
               "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "DenominatorError"


def test_byte_identical_reruns(tmp_path):
    spec = write_spec(tmp_path, GAMMA_SPEC)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(["solve", "--spec", str(spec), "--delta", "0.99",
                   "--cells", "1200", "--out", str(out)])
        assert rc == 0
        outs.append((out / "density.csv").read_bytes())
    assert outs[0] == outs[1]


def test_validate_command(tmp_path, capsys):
    spec = write_spec(tmp_path, GAMMA_SPEC)
    out = tmp_path / "val"
    rc = main(["validate", "--spec", str(spec), "--delta", "0.997",
               "--cells", "3200", "--out", str(out), "--plot"])
    captured = capsys.readouterr().out
    assert rc == 0, captured
    assert "PASS" in captured
    assert (out / "validation.csv").exists()
    assert (out / "ratio.csv").exists()
    ET.parse(out / "ratio.svg")


def test_validate_stretched_exp_n1(tmp_path, capsys):
    # its small-x ratio converges like 1/log(1/x), which the check now
    # extrapolates in; in x it read +2.15% against the 2% threshold
    rc = main(["validate", "--spec", str(RECIPES / "stretched_exp_n1.json"),
               "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().out


def test_solve_on_a_grid_reaching_below_1e_162(tmp_path):
    # x_0 = 2.4e-166: there sqrt(x_n x_(n+1)) underflowed to 0 and the gap
    # fit took log(0), and the residual's correlation rounded to 4e66
    rc = main(["solve", "--spec", str(RECIPES / "powered_gamma_a1.json"), "--delta", "0.98",
               "--cells", "19000", "--out", str(tmp_path)])
    assert rc == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert float(re.search(r"equation residual \(\d+ cells\): (\S+)", summary)[1]) < 1e-4


def test_validate_failure_exits_4(tmp_path, capsys):
    spec = write_spec(tmp_path, GAMMA_SPEC)
    out = tmp_path / "val_bad"
    # grid far too short for the truncation: moments cannot match
    rc = main(["validate", "--spec", str(spec), "--delta", "0.998",
               "--cells", "600", "--out", str(out)])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out


def test_moments_command(tmp_path, capsys):
    spec = write_spec(tmp_path, UNIFORM_SPEC)
    out = tmp_path / "mom"
    rc = main(["moments", "--spec", str(spec), "--orders", "4", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_with_text(out / "moments.csv")
    assert header == "order,value,provenance"
    values = {int(float(r[0])): float(r[1]) for r in rows}
    for n in range(5):
        assert values[n] == pytest.approx(1.0 / (n + 1), rel=1e-12)


def read_csv_with_text(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_transform_rho(tmp_path):
    spec = write_spec(tmp_path, UNIFORM_SPEC)
    out = tmp_path / "tr"
    rc = main(["transform", "--spec", str(spec), "--rho", "1.0",
               "--delta", "0.999", "--cells", "1500", "--out", str(out)])
    assert rc == 0
    tilted = json.loads((out / "tilted_spec.json").read_text())
    assert tilted["kill"] == 0.0
    assert tilted["tail"]["variant"] == "tilted"
    _, rows = read_csv(out / "tilted_density.csv")
    # tilted law is Beta(2, 1): density 2x
    mid = rows[len(rows) // 2]
    assert mid[1] == pytest.approx(2.0 * mid[0], abs=2e-2)


def test_transform_dual_matches_inverse_gamma(tmp_path):
    spec = write_spec(tmp_path, GAMMA_SPEC)
    out = tmp_path / "dual"
    rc = main(["transform", "--spec", str(spec), "--dual", "--delta", "0.99",
               "--cells", "1500", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "dual_density.csv")
    xs, ks = rows[:, 0], rows[:, 1]
    keep = (xs > 0.7) & (xs < 30.0)
    expected = 2.0 ** 0.5 / math.gamma(0.5) * xs[keep] ** -1.5 * np.exp(-2.0 / xs[keep])
    assert np.max(np.abs(ks[keep] - expected)) <= 2e-2
    summary = (out / "dual_summary.txt").read_text()
    assert "qstar: 0.25" in summary


def test_transform_requires_mode(tmp_path):
    spec = write_spec(tmp_path, GAMMA_SPEC)
    assert main(["transform", "--spec", str(spec)]) == 2


def test_mc_command(tmp_path, capsys):
    spec = write_spec(tmp_path, GAMMA_SPEC)
    out = tmp_path / "mc"
    rc = main(["mc", "--spec", str(spec), "--delta", "0.99", "--cells", "1500",
               "--mc-samples", "20000", "--seed", "5", "--out", str(out)])
    assert rc == 0, capsys.readouterr().out
    report = (out / "ks_report.txt").read_text()
    assert "pass: True" in report
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0].startswith("# ") and lines[1] == "I"
    assert len(lines) == 20002


def one_json_line(err):
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


def test_bad_command_lines_print_one_json_line(capsys):
    for argv in (["nonsense"], []):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert one_json_line(captured.err)["error"] == "SpecFileError"


def test_help_exits_0(capsys):
    assert main(["mc", "--help"]) == 0
    captured = capsys.readouterr()
    assert "--mc-samples" in captured.out and captured.err == ""


UNREAD_BY_GRID_COMMANDS = (
    ("--seed", "1"), ("--mc-samples", "1000"), ("--cutoff", "0.1"), ("--probes", "16")
)
UNREAD_FLAGS = (
    [(cmd, flag) for cmd in ("solve", "validate", "transform") for flag in UNREAD_BY_GRID_COMMANDS]
    + [
        ("moments", flag)
        for flag in (("--delta", "0.99"), ("--cells", "9000"), ("--xmax", "2.0"),
                     ("--plot",)) + UNREAD_BY_GRID_COMMANDS
    ]
    + [("mc", ("--plot",)), ("mc", ("--probes", "16"))]
)


@pytest.mark.parametrize(
    "command,flag", UNREAD_FLAGS, ids=[f"{cmd} {flag[0]}" for cmd, flag in UNREAD_FLAGS]
)
def test_command_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    spec = write_spec(tmp_path, UNIFORM_SPEC)
    out = tmp_path / "out"
    mode = ["--rho", "1.0"] if command == "transform" else []
    rc = main([command, "--spec", str(spec), "--out", str(out), *mode, *flag])
    assert rc == 2
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "SpecFileError"
    assert flag[0] in err["message"]
    assert not out.exists()


def test_abbreviated_flags_are_rejected(tmp_path, capsys):
    # with prefix matching, --mc and --se would read as --mc-samples and --seed
    spec = write_spec(tmp_path, GAMMA_SPEC)
    out = tmp_path / "mc"
    rc = main(["mc", "--spec", str(spec), "--out", str(out), "--mc", "500", "--se", "3"])
    assert rc == 2
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "SpecFileError" and "--mc" in err["message"]
    assert not out.exists()


def test_mc_too_few_samples_exits_2_before_any_work(tmp_path, capsys):
    spec = write_spec(tmp_path, GAMMA_SPEC)
    out = tmp_path / "mc"
    rc = main(["mc", "--spec", str(spec), "--mc-samples", "50", "--out", str(out)])
    assert rc == 2
    err = one_json_line(capsys.readouterr().err)
    assert err["message"] == "--mc-samples must be at least 100"
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines_parse():
    lines = [line.strip() for line in README.read_text().splitlines()
             if line.strip().startswith("expfun ")]
    assert len(lines) >= 6
    parser = _parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SpecFileError as exc:
            pytest.fail(f"README line {line!r} does not parse: {exc}")


def test_readme_flag_table_matches_the_parser():
    (subparsers,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    rows = {}
    for line in README.read_text().splitlines():
        m = re.match(r"\| `(\w+)` \|(.*)\|$", line)
        if m:
            rows[m.group(1)] = set(re.findall(r"--[\w-]+", m.group(2)))
    assert set(rows) == set(subparsers.choices)
    for name, parser in subparsers.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert rows[name] == flags - {"--help", "--spec", "--out"}, name
