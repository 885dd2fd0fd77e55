"""Command line surface: parsing, exit codes, golden outputs, determinism.

Golden fixtures live in tests/golden and can be refreshed by running the
suite with UPDATE_GOLDEN=1 after an intentional output change.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from adictower.cli import ConfigError, emit_report, main, parse_config
from adictower.exactalg.rings import integer_ring
from adictower.verify.pipeline import run_full_report

GOLDEN = Path(__file__).parent / "golden"


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_defaults():
    cfg = parse_config([])
    assert cfg.ring == "z"
    assert cfg.ideal == "2"
    assert cfg.depth == 4
    assert cfg.fmt == "text"
    assert cfg.seed == 0
    assert cfg.oracle_bound == 4096
    assert cfg.horizon == 8
    assert cfg.lemma is None


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config(["--depth", "0"])
    with pytest.raises(ConfigError):
        parse_config(["--depth", "x"])
    with pytest.raises(ConfigError):
        parse_config(["--ring", "gaussian"])
    with pytest.raises(ConfigError):
        parse_config(["--lemma", "nonsense"])
    with pytest.raises(ConfigError):
        parse_config(["--mystery"])
    with pytest.raises(ConfigError):
        parse_config(["--ring", "poly", "--depth", "2"])
    with pytest.raises(ConfigError):
        parse_config(["--ring", "z", "--char", "2"])
    with pytest.raises(ConfigError):
        parse_config(["--oracle-bound", "0"])
    with pytest.raises(ConfigError):
        parse_config(["--horizon", "1025"])
    assert parse_config(["--horizon", "1024"]).horizon == 1024


def test_config_file_merging(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("ideal = 3\ndepth = 2\nseed = 9\n# note\n\n")
    cfg = parse_config(["--config", str(cfg_file)])
    assert cfg.ideal == "3"
    assert cfg.depth == 2
    assert cfg.seed == 9
    # explicit flags beat the file
    cfg = parse_config(["--config", str(cfg_file), "--depth", "5"])
    assert cfg.depth == 5


def test_config_file_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown config key: bogus"):
        parse_config(["--config", str(cfg_file)])


def test_config_file_rejects_bad_lines(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(cfg_file)])
    with pytest.raises(ConfigError):
        parse_config(["--config", str(tmp_path / "missing.cfg")])


def test_exit_zero_on_pass(capsys):
    code, out, err = run_main(["--ideal", "2", "--depth", "2"], capsys)
    assert code == 0
    assert out.endswith("overall: pass\n")
    assert err == ""


def test_exit_one_on_failing_tower(capsys):
    code, out, _ = run_main(["--ideal", "6", "--depth", "2"], capsys)
    assert code == 1
    assert "condition_4: fail (generator 6 is not prime)" in out
    assert out.endswith("overall: fail\n")


def test_exit_two_on_bad_config(capsys):
    code, out, err = run_main(["--depth", "-3"], capsys)
    assert code == 2
    assert out == ""
    assert "depth" in err


def test_exit_two_on_unparseable_ideal(capsys):
    code, _, err = run_main(["--ideal", "banana"], capsys)
    assert code == 2
    assert "banana" in err


def test_ml_control_exits_one(capsys):
    code, out, _ = run_main(["--ml-control"], capsys)
    assert code == 1
    assert out == "mittag-leffler control: not-stabilized-within-horizon\n"


def test_lemma_filter_flag(capsys):
    code, out, _ = run_main(["--depth", "2", "--lemma", "homzz"], capsys)
    assert code == 0
    assert "homzz: pass" in out
    assert "jislim: skipped (not requested)" in out


def test_json_output_parses(capsys):
    code, out, _ = run_main(["--depth", "2", "--format", "json"], capsys)
    assert code == 0
    tree = json.loads(out)
    assert tree["tool"]["name"] == "adictower"
    assert tree["overall"] == "pass"
    assert tuple(tree["lemmas"]) == (
        "homzz",
        "jislim",
        "zml",
        "quotient",
        "jjz",
        "homjz_a",
        "homjz_b",
        "weak_epi",
        "self_small_witness",
    )


def check_golden(name, actual):
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDEN"):
        path.write_text(actual)
        return
    assert actual == path.read_text(), f"golden mismatch for {name}"


def test_golden_passing_text(capsys):
    _, out, _ = run_main(["--ring", "z", "--ideal", "2", "--depth", "3"], capsys)
    check_golden("two_adic_depth3.txt", out)


def test_golden_failing_text(capsys):
    _, out, _ = run_main(["--ring", "z", "--ideal", "6", "--depth", "2"], capsys)
    check_golden("six_depth2.txt", out)


def test_golden_polynomial_json(capsys):
    _, out, _ = run_main(
        ["--ring", "poly", "--char", "2", "--ideal", "x", "--depth", "2", "--format", "json"],
        capsys,
    )
    check_golden("poly_x_depth2.json", out)


def test_emit_report_text_shape():
    rep = run_full_report(integer_ring(), 2, 1)
    text = emit_report(rep, "text")
    lines = text.splitlines()
    assert lines[0].startswith("adictower ")
    assert lines[1].startswith("tower: ")
    assert lines[2].startswith("settings: ")
    assert lines[-1] == "overall: pass"


def test_cli_byte_determinism_subprocess():
    cmd = [
        sys.executable,
        "-m",
        "adictower.cli",
        "--ideal",
        "2",
        "--depth",
        "3",
        "--format",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_cli_subprocess_exit_codes():
    base = [sys.executable, "-m", "adictower.cli"]
    failing = subprocess.run(
        base + ["--ideal", "6", "--depth", "2"], capture_output=True
    )
    assert failing.returncode == 1
    invalid = subprocess.run(base + ["--depth", "0"], capture_output=True)
    assert invalid.returncode == 2


def test_cli_runs_load_no_sympy():
    script = "\n".join(
        [
            "import contextlib, io, json, sys",
            "from adictower import cli",
            "runs = [['--ideal', '2', '--depth', '2'],",
            "        ['--ring', 'poly', '--char', '3', '--ideal', 'x+1', '--depth', '2']]",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    codes = [cli.main(argv) for argv in runs]",
            "loaded = [m for m in sys.modules if m == 'sympy' or m.startswith('sympy.')]",
            "print(json.dumps({'codes': codes, 'sympy': loaded}))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout) == {"codes": [0, 0], "sympy": []}


@pytest.mark.parametrize("char", ["561", "1", "0", "-3"])
def test_exit_two_on_composite_or_degenerate_characteristic(char, capsys):
    argv = ["--ring", "poly", "--char", char, "--ideal", "x", "--depth", "2"]
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"characteristic must be prime, got {char}" in err


def test_exit_three_names_the_exception(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("adictower.cli.run_full_report", out_of_memory)
    code, out, err = run_main(["--depth", "2"], capsys)
    assert code == 3
    assert out == ""
    assert "MemoryError" in err


def _run_cli_in_one_gib(argv):
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "adictower.cli"] + argv,
        capture_output=True,
        preexec_fn=cap_address_space,
        timeout=300,
    )


def test_large_prime_ideal_verifies_in_bounded_memory():
    # Sampling draws single residues of the 65537^2-element top level
    # instead of listing them all.
    proc = _run_cli_in_one_gib(["--ideal", "65537", "--depth", "2"])
    assert proc.returncode in (0, 1), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--ideal", "7" * 5000, "--depth", "1"],
        ["--ring", "poly", "--char", "2", "--ideal", "x^99999999999", "--depth", "1"],
        ["--ml-control", "--horizon", "100000000"],
    ],
    ids=["5000-digit-ideal", "huge-exponent", "huge-horizon"],
)
def test_oversized_literals_are_configuration_errors(argv):
    proc = _run_cli_in_one_gib(argv)
    assert proc.returncode == 2, proc.stderr


IDEALS = [str(n) for n in range(-12, 13)] + ["x", "x+1", "x^2+x+1", "x^2", "y", "2x", ""]


@given(
    ring=st.sampled_from(["z", "poly"]),
    char=st.none() | st.sampled_from([-3, 0, 1, 2, 3, 4, 5]),
    ideal=st.sampled_from(IDEALS),
    depth=st.integers(-1, 3),
)
@settings(max_examples=30, deadline=None)
def test_cli_ends_in_a_verdict_or_a_configuration_error(ring, char, ideal, depth):
    # None leaves --char out, which the integers require.
    argv = ["--ring", ring, "--ideal", ideal, "--depth", str(depth)]
    if char is not None:
        argv += ["--char", str(char)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    assert code in (0, 1, 2), sink.getvalue()
