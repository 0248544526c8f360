"""End-to-end CLI behavior: output, exit codes, determinism, reference outputs."""

import argparse
import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"
# the benchmark's reference outputs: stdout and the file a command writes
REFERENCE = PYPROJECT.parent / "perfbench" / "reference"
REFERENCE_RUNS = {
    "table-md": ("table --rows 25 --format md", "table_k25.md", None),
    "table-csv": ("table --rows 25 --format csv", "table_k25.csv", None),
    "certify": ("certify --n 22", "certify_n22.txt", None),
    "scan2d": ("scan --dim 2 --max-n 3000", "scan2d_3000.txt", None),
    "spectrum": ("spectrum --shape ball --count 10", "spectrum_ball_10.csv", None),
    "figure": ("figure --n 22 --class disks --out figure_n22_disks.svg",
               "figure_n22_disks.txt", "figure_n22_disks.svg"),
}


# sha256 of `construct --t T --svg F` stdout (F written as "c.svg") followed
# by the SVG bytes, on both sides of each branch boundary and at the ends
CONSTRUCT_SHA256 = {
    "zero": "ccdab4cce72f152bb91f3d61c1d2486e2d5b9b5971c3e4f62a4196b123f45d49",
    "five": "7f024992939afc2f72e9c02c7670db0c8c80e9e8dab83055af0e58eb7f41cd48",
    "pi2": "1dcf3354b452da7b1feb3f4217b6cea1c1f89e435f4eda8a11973cb84ebdb132",
    "above_pi2": "31a49b69c83f6cd1b6b1670e9ec93306838e4c88e630ede0bedcd93d505bcca6",
    "mu1max": "50df8936d90c002be2636371ada7a24ad638c78f670bdd7c64580af3bee8334f",
    "above_mu1max": "43bb1c532f64675893d26805f4997e4bcf8dd3ab909c417b7c56627c53d426ca",
    "readme": "b88f2e33b00c2d14776cba1dc1b38f3228b37e231f2a7242e1492d5bc79b2bf5",
    "mu2max": "e3f91cfcc4da2cb17bb16542ec476f84378bdbc71a09138f337c6938e32e3c16",
}


# sha256 of `spectrum --shape S --bc B --count 200` stdout
SPECTRUM_SHA256 = {
    ("disk", "neumann"): "1725584272dfa2d05e5419ed6d6e041d40bba4041df62ae9bc39e665a3ad9652",
    ("disk", "dirichlet"): "f720580d76e2a010ece0eab74f73f127594ea8917616e6edc8191a127262948c",
    ("square", "neumann"): "2aab567b3942a3c6df9fb0cdc0b94309e6621e23e83c20c67be0b50d6ecab45f",
    ("square", "dirichlet"): "53b7b3a358fb6465082c6dd39f96d196584c8fc9e9d23eaf21e5ef8295a23d54",
    ("ball", "neumann"): "5ff255ebc9900ce2570e6c141037cac205c27a811c9910675c3a5bfba9c7213d",
    ("cube", "neumann"): "4f029446c8003ebccb48adb6a43297f067082d9c93b7ed9f521c5b1f8f828a07",
    ("cube", "dirichlet"): "ded9cbf01afdcc47db0ccd377300391c60c4941067a98eaeacee917c84c366ea",
}


def construct_target(name):
    from specpack.constructions import mu1_max, mu2_max

    pi2 = math.pi**2
    return {
        "zero": 0.0,
        "five": 5.0,
        "pi2": pi2,
        "above_pi2": math.nextafter(pi2, math.inf),
        "mu1max": mu1_max(),
        "above_mu1max": math.nextafter(mu1_max(), math.inf),
        "readme": 21.2997325173,
        "mu2max": mu2_max(),
    }[name]


def run_cli(*args):
    cmd = [sys.executable, "-m", "specpack", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def declared_scripts():
    """The `[project.scripts]` table of pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_reference_output(name, tmp_path, monkeypatch, capsys):
    # byte for byte, in process; the figure writes its SVG into tmp_path
    from specpack import cli

    args, stdout, written = REFERENCE_RUNS[name]
    monkeypatch.chdir(tmp_path)
    assert cli.main(args.split()) == 0
    assert capsys.readouterr().out.encode() == (REFERENCE / stdout).read_bytes()
    if written:
        assert (tmp_path / written).read_bytes() == (REFERENCE / written).read_bytes()


class TestTable:
    def test_deterministic(self):
        a = run_cli("table", "--rows", "10", "--format", "md")
        b = run_cli("table", "--rows", "10", "--format", "md")
        assert a.stdout == b.stdout

    def test_single_row(self):
        cp = run_cli("table", "--rows", "1", "--format", "md")
        assert cp.returncode == 0
        row = cp.stdout.splitlines()[2]
        assert "10.650" in row and "9.87" in row

    def test_csv_full_precision(self):
        import csv
        import io

        cp = run_cli("table", "--rows", "3", "--format", "csv")
        assert cp.returncode == 0, cp.stderr
        rows = list(csv.reader(io.StringIO(cp.stdout)))
        assert rows[0][:3] == ["n", "disk_mode", "disk_mu_n"]
        value = rows[1][2]
        assert value == repr(float(value))  # full precision round-trip
        assert abs(float(value) - 10.649866258676) < 1e-9

    def test_bad_rows_is_input_error(self):
        assert run_cli("table", "--rows", "0").returncode == 1
        assert run_cli("table", "--rows", "x").returncode == 1

    def test_int_cell(self):
        # squares' split values over pi^2 are integers in every table row;
        # a value that is not prints with two decimals
        from specpack import cli

        assert [cli._int_cell(x) for x in (None, 3.0, 3.0000004, 2.5)] == ["-", "3", "3", "2.50"]


class TestCertify:
    def test_n22_certified(self):
        cp = run_cli("certify", "--n", "22")
        assert cp.returncode == 0, cp.stderr
        assert "disks 241.56 < squares 246.74: certified" in cp.stdout

    def test_n23_certified(self):
        cp = run_cli("certify", "--n", "23")
        assert cp.returncode == 0
        assert "252.21" in cp.stdout and "256.61" in cp.stdout

    def test_n8_contradiction(self):
        cp = run_cli("certify", "--n", "8")
        assert cp.returncode == 2
        assert "disks 88.83 > squares 78.96: not a crossover" in cp.stdout


class TestFigure:
    def test_disks_22(self, tmp_path):
        out = tmp_path / "packing.svg"
        cp = run_cli("figure", "--n", "22", "--class", "disks", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        root = ET.fromstring(out.read_text())
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        texts = [e for e in root.iter() if e.tag.endswith("text")]
        assert len(circles) == 8
        assert len(texts) == 1
        radii = sorted(float(c.get("r")) for c in circles)
        assert abs(radii[0] - 0.11846) < 1e-4  # six small disks
        assert abs(radii[-1] - 0.3421) < 1e-4  # two large disks

    def test_disks_1_single_circle(self, tmp_path):
        out = tmp_path / "one.svg"
        cp = run_cli("figure", "--n", "1", "--class", "disks", "--out", str(out))
        assert cp.returncode == 0
        root = ET.fromstring(out.read_text())
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 1
        assert abs(float(circles[0].get("r")) - 0.56419) < 1e-4  # 1/sqrt(pi)

    def test_disks_16_two_equal(self, tmp_path):
        out = tmp_path / "two.svg"
        run_cli("figure", "--n", "16", "--class", "disks", "--out", str(out))
        root = ET.fromstring(out.read_text())
        radii = [float(c.get("r")) for c in root.iter() if c.tag.endswith("circle")]
        assert len(radii) == 2 and radii[0] == radii[1]

    def test_squares_render_rects(self, tmp_path):
        out = tmp_path / "sq.svg"
        cp = run_cli("figure", "--n", "2", "--class", "squares", "--out", str(out))
        assert cp.returncode == 0
        root = ET.fromstring(out.read_text())
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) == 2

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        run_cli("figure", "--n", "9", "--class", "disks", "--out", str(a))
        run_cli("figure", "--n", "9", "--class", "disks", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_3d_shapes_refused(self):
        from specpack import spectra, svgfig
        from specpack.wolfkeller import PackedComponent, PackedDomain

        domain = PackedDomain((PackedComponent(spectra.ball(), 1.0, 1),))
        with pytest.raises(ValueError, match="cannot draw 3D shape 'ball'"):
            svgfig.packing_svg(domain, "")


class TestScan:
    def test_2d_83(self):
        cp = run_cli("scan", "--dim", "2", "--max-n", "83")
        assert cp.returncode == 0, cp.stderr
        assert "22, 23, 83" in cp.stdout

    def test_2d_10_empty(self):
        cp = run_cli("scan", "--dim", "2", "--max-n", "10")
        assert cp.returncode == 0
        assert "no crossover" in cp.stdout

    def test_3d_reports_balls_win(self):
        cp = run_cli("scan", "--dim", "3", "--max-n", "64")
        assert cp.returncode == 0
        assert "no crossover" in cp.stdout and "balls" in cp.stdout

    def test_bad_dim(self):
        assert run_cli("scan", "--dim", "4", "--max-n", "5").returncode == 1


class TestConstruct:
    def test_two_half_disks(self):
        cp = run_cli("construct", "--t", "21.2997325173")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.count("disk") == 2
        assert "mu_2 = 21.29973" in cp.stdout

    def test_midrange_with_svg(self, tmp_path):
        out = tmp_path / "c.svg"
        cp = run_cli("construct", "--t", "5.0", "--svg", str(out))
        assert cp.returncode == 0
        assert "rectangle" in cp.stdout and "mu_2 = 5" in cp.stdout
        root = ET.fromstring(out.read_text())
        assert len([e for e in root.iter() if e.tag.endswith("rect")]) == 1
        assert len([e for e in root.iter() if e.tag.endswith("circle")]) == 1

    def test_zero_target(self):
        cp = run_cli("construct", "--t", "0")
        assert cp.returncode == 0
        assert cp.stdout.count("disk") == 3

    @pytest.mark.parametrize("text", ["-0", "-0.0"])
    def test_negative_zero_target_is_zero(self, capsys, text):
        # argparse reads -0 as a negative number; it names the t = 0 target
        from specpack import cli

        assert cli.main(["construct", "--t", text]) == 0
        out = capsys.readouterr().out
        assert out.startswith("target t = 0.0\n") and out.count("disk") == 3

    def test_underflowing_target_is_input_error(self, capsys):
        # 1e-400 names a nonzero target but parses to 0.0; 0 is the t = 0 one
        from specpack import cli

        assert cli.main(["construct", "--t", "1e-400"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("argument --t: '1e-400' underflows to 0.0\n")
        assert cli.main(["construct", "--t", "0"]) == 0
        assert capsys.readouterr().out.count("disk") == 3

    def test_unwritable_svg_prints_nothing(self, tmp_path, capsys):
        # the SVG is written before the report, so a failed write leaves no
        # success lines on stdout
        from specpack import cli

        svg = tmp_path / "missing" / "x.svg"
        assert cli.main(["construct", "--t", "5", "--svg", str(svg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and not svg.exists()

    def test_out_of_range_mentions_interval(self):
        cp = run_cli("construct", "--t", "50")
        assert cp.returncode == 1
        assert "[0," in cp.stderr

    @pytest.mark.parametrize("name", sorted(CONSTRUCT_SHA256))
    def test_output_pinned(self, tmp_path, capsys, name):
        from specpack import cli

        svg = tmp_path / "c.svg"
        t = construct_target(name)
        assert cli.main(["construct", "--t", repr(t), "--svg", str(svg)]) == 0
        out = capsys.readouterr().out.replace(str(svg), "c.svg")
        digest = hashlib.sha256(out.encode() + svg.read_bytes()).hexdigest()
        assert digest == CONSTRUCT_SHA256[name]


    @pytest.mark.parametrize("t", [1e-20, 1e-50, 1e-300, 2.3e-308, 1e-310, 1e-320, 5e-324])
    def test_tiny_targets_verify_or_fail(self, capsys, t):
        # deep among the subnormal floats mu_2 loses its digits, so a run may
        # fail (exit 1 or 3) but must never print a mu_2 other than t; down
        # to t ~ 1e-314 it builds the domain
        from specpack import cli

        code = cli.main(["construct", "--t", repr(t)])
        out, err = capsys.readouterr()
        if t >= 1e-314:
            assert code == 0, err
        if t == 1e-320:
            assert code == 3 and err.startswith("accuracy failure:")
        if t == 5e-324:
            assert code == 1
        if code == 0:
            mu2 = float(out.split("mu_2 = ")[1].split(",")[0])
            assert mu2 == pytest.approx(t, rel=1e-9)
        else:
            assert code in (1, 3) and out == "" and err.startswith(("error:", "accuracy failure:"))


class TestExitCodes:
    def test_accuracy_failure_maps_to_3(self, monkeypatch):
        from specpack import cli
        from specpack.bessel import AccuracyError

        def boom(*args, **kwargs):
            raise AccuracyError("synthetic residual failure")

        monkeypatch.setattr(cli.spectra, "disk_spectrum", boom)
        assert cli.main(["spectrum", "--shape", "disk", "--count", "3"]) == 3

    def test_console_script_entry(self):
        # Run the declared target the way an installed script's wrapper does,
        # so a mistyped `[project.scripts]` entry fails without an install.
        # The target is the process entry, which freezes the heap after the
        # command but leaves the rest of shutdown alone: an atexit handler
        # registered before it still prints after the command's output (an
        # os._exit shortcut would drop that line).
        scripts = declared_scripts()
        assert scripts.get("specpack") == "specpack.cli:run"
        module, _, func = scripts["specpack"].partition(":")
        wrapper = (
            "import atexit, sys; atexit.register(print, 'atexit ran'); "
            f"from {module} import {func}; sys.exit({func}())"
        )
        cp = subprocess.run(
            [sys.executable, "-c", wrapper, "certify", "--n", "22"],
            capture_output=True,
            text=True,
        )
        assert (cp.returncode, cp.stdout, cp.stderr) == (0, CERTIFIED + "atexit ran\n", "")

    def test_run_freezes_and_main_does_not(self):
        # in a fresh interpreter: main() leaves the collector as it was, run()
        # freezes what the command built and returns the same status
        cp = _fresh_python(
            "import gc, sys; from specpack import cli; "
            "print(cli.main(sys.argv[1:]), gc.get_freeze_count()); "
            "print(cli.run(), gc.get_freeze_count() > 0)",
            "certify", "--n", "22",
        )
        assert (cp.returncode, cp.stdout, cp.stderr) == (
            0, CERTIFIED + "0 0\n" + CERTIFIED + "0 True\n", "")

    @pytest.mark.skipif(
        shutil.which("specpack") is None, reason="console script not installed"
    )
    def test_installed_console_script(self):
        cp = subprocess.run(
            ["specpack", "certify", "--n", "22"], capture_output=True, text=True
        )
        assert cp.returncode == 0, cp.stderr
        assert "certified" in cp.stdout


class TestSpectrumCommand:
    def test_disk_csv(self):
        cp = run_cli("spectrum", "--shape", "disk", "--bc", "neumann",
                     "--count", "5")
        assert cp.returncode == 0
        lines = cp.stdout.splitlines()
        assert lines[0] == "index,value,multiplicity,label"
        assert lines[1].startswith("1,10.64986626,2,")

    def test_cube(self):
        cp = run_cli("spectrum", "--shape", "cube", "--count", "3")
        assert cp.returncode == 0
        assert cp.stdout.count("9.869604401") == 3

    def test_dirichlet_ball_rejected(self):
        cp = run_cli("spectrum", "--shape", "ball", "--bc", "dirichlet",
                     "--count", "3")
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr == "error: the ball spectrum is Neumann-only\n"

    @pytest.mark.parametrize("shape,bc", sorted(SPECTRUM_SHA256))
    def test_output_pinned(self, capsys, shape, bc):
        from specpack import cli

        assert cli.main(["spectrum", "--shape", shape, "--bc", bc, "--count", "200"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == SPECTRUM_SHA256[shape, bc]

    def test_unknown_command(self):
        assert run_cli("tabulate").returncode == 1


@pytest.mark.parametrize("argv,option", [
    (["certify", "--n", "0"], "--n"),
    (["figure", "--n", "0", "--class", "disks", "--out", "x.svg"], "--n"),
    (["scan", "--dim", "2", "--max-n", "0"], "--max-n"),
    (["spectrum", "--shape", "disk", "--count", "0"], "--count"),
    (["table", "--rows", "0"], "--rows"),
])
def test_count_below_one_is_input_error(capsys, argv, option):
    from specpack import cli

    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {option} must be >= 1, got 0\n"


@pytest.mark.parametrize("args", [
    "spectrum --shape disk --count 2000000",
    "table --rows 200000",
])
def test_oversized_walk_refused_before_any_pass(args):
    # the zero table refuses the disk spectrum's whole order walk up front,
    # where a refusal per order came only after 17-34 s of passes
    start = time.monotonic()
    cp = run_cli(*args.split())
    assert time.monotonic() - start < 10.0
    assert cp.returncode == 1 and cp.stdout == ""
    assert cp.stderr.startswith("error: query too large: ") and "Traceback" not in cp.stderr


CERTIFIED = "disks 241.56 < squares 246.74: certified\n"

# the usage line of the top-level parser (None) and of each subcommand at 80
# columns, recorded from the hand-written parser that the option table replaced
USAGE = {
    None: "usage: specpack [-h] {table,certify,figure,scan,construct,spectrum} ...\n",
    "table": "usage: specpack table [-h] --rows ROWS [--format {md,csv}]\n",
    "certify": "usage: specpack certify [-h] --n N\n",
    "figure": "usage: specpack figure [-h] --n N --class {disks,squares} --out OUT\n",
    "scan": "usage: specpack scan [-h] --dim {2,3} --max-n MAX_N\n",
    "construct": "usage: specpack construct [-h] --t T [--svg SVG]\n",
    "spectrum": "usage: specpack spectrum [-h] --shape {disk,square,ball,cube}\n"
                "                         [--bc {neumann,dirichlet}] --count COUNT\n",
}


def _fresh_python(code, *args):
    # -S keeps site .pth files from preloading (and so hiding) any module
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )


def test_import_set():
    # every command pays for this import: the package never imports the
    # numeric and test libraries, nor argparse (with gettext) and csv, which
    # only the commands that need them import, nor gc, which only the process
    # entry imports
    cp = _fresh_python(
        "import specpack, specpack.cli, sys; "
        "print(sorted({'argparse', 'csv', 'dataclasses', 'gc', 'gettext', 'inspect', 'typing', "
        "'numpy', 'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))"
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\n"
    # a well-formed command is parsed without argparse; a usage error loads
    # it and prints its text
    run = "import sys; from specpack import cli; print(cli.main(sys.argv[1:]), 'argparse' in sys.modules)"
    cp = _fresh_python(run, "certify", "--n", "22")
    assert (cp.stdout, cp.stderr) == (CERTIFIED + "0 False\n", "")
    cp = _fresh_python(run, "table", "--rows", "x")
    assert (cp.stdout, cp.stderr) == (
        "1 True\n",
        USAGE["table"] + "specpack table: error: argument --rows: invalid int value: 'x'\n",
    )


@pytest.mark.parametrize("command", USAGE)
def test_usage_pinned(capsys, monkeypatch, command):
    # --help is parsed by argparse, exits 0 and opens with the usage line;
    # `python -m specpack` prints the same bytes
    from specpack import cli

    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith(USAGE[command] + "\n") and err == ""
    cp = run_cli(*argv)
    assert (cp.returncode, cp.stdout, cp.stderr) == (0, out, "")


# one well-formed argv per command and the options argparse gives for it
PLAIN = [
    (["table", "--rows", "3"], {"rows": 3, "format": "md"}),
    (["certify", "--n", "22"], {"n": 22}),
    (["figure", "--out", "x.svg", "--class", "squares", "--n", "9"],
     {"n": 9, "shape_class": "squares", "out": "x.svg"}),
    (["scan", "--max-n", "٨٣", "--dim", "2"], {"dim": 2, "max_n": 83}),
    (["construct", "--t", "5"], {"t": 5.0, "svg": None}),
    (["spectrum", "--count", "4", "--bc", "dirichlet", "--shape", "cube"],
     {"shape": "cube", "bc": "dirichlet", "count": 4}),
]


@pytest.mark.parametrize("argv,options", PLAIN)
def test_plain_args_match_argparse(argv, options):
    from specpack import cli

    expected = {"command": argv[0], "func": cli.COMMANDS[argv[0]][1], **options}
    assert cli.plain_args(argv) == expected == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [],                                                 # no command
    ["tabulate", "--rows", "3"],                        # unknown command
    ["certify", "--n"],                                 # a flag without a value
    ["certify", "--n", "8", "--n", "9"],                # a repeated flag
    ["certify", "--n", "-1"],                           # a value that starts with "-"
    ["certify", "--", "--n", "3"],
    ["certify", "--n", "x"],                            # a value its type refuses
    ["construct", "--t", "1e-400"],
    ["scan", "--dim", "4", "--max-n", "5"],             # a value outside the choices
    ["certify", "--n=8", "--n", "8"],                   # a flag not the command's
    ["spectrum", "--sha", "disk", "--count", "3"],
    ["table", "--format", "csv"],                       # a required flag missing
])
def test_plain_args_refuse(argv):
    from specpack import cli

    assert cli.plain_args(argv) is None


@pytest.mark.parametrize("argv,code,out,err", [
    (["certify", "--n=22"], 0, CERTIFIED, ""),
    (["certify", "--n", "8", "--n", "22"], 0, CERTIFIED, ""),
    (["certify", "--n", "-22"], 1, "", "error: --n must be >= 1, got -22\n"),
])
def test_argparse_fallback(capsys, argv, code, out, err):
    # argv that only argparse parses: --flag=value, a repeated flag (the last
    # one wins) and a negative value
    from specpack import cli

    assert cli.main(argv) == code
    assert capsys.readouterr() == (out, err)


# the vocabulary of the option table: each command's flags with values that
# pass, and noise around them
ARGV_OPTIONS = {
    "table": ("--rows", "--format"),
    "certify": ("--n",),
    "figure": ("--n", "--class", "--out"),
    "scan": ("--dim", "--max-n"),
    "construct": ("--t", "--svg"),
    "spectrum": ("--shape", "--bc", "--count"),
}
GOOD_VALUES = {
    "--rows": ("1", "25", "٣"), "--format": ("md", "csv"), "--n": ("1", "22", "３"),
    "--class": ("disks", "squares"), "--out": ("x.svg", "md"), "--dim": ("2", "3"),
    "--max-n": ("10", " 7"), "--t": ("0", "5.0", "nan", "2_0"), "--svg": ("c.svg", ""),
    "--shape": ("disk", "square", "ball", "cube"), "--bc": ("neumann", "dirichlet"),
    "--count": ("4", "1_0"),
}
NOISE_FLAGS = ("--ro", "--c", "--max", "-n", "--rows=3", "--n=5", "--dim=2", "--format=csv",
               "--unknown", "-h", "--help", "--", "-", "rows")
NOISE_VALUES = ("-1", "-2.5", "-0", "", "x", "xml", "4", "sphere", "1e-400", "-1e-400",
                "1e400", "2.0", "0x10", "-h", "--", "tabulate", "disks ", "Neumann")
FLAGS = sorted(GOOD_VALUES) + list(NOISE_FLAGS)
VALUES = sorted({v for vs in GOOD_VALUES.values() for v in vs}) + list(NOISE_VALUES)


@st.composite
def argvs(draw):
    # a command (or not) with each of its flags once and a value that passes;
    # then, in four of seven argv, one change: a flag left out, a value
    # replaced, or a pair or a token inserted
    command = draw(st.sampled_from(sorted(ARGV_OPTIONS) + ["tabulate", "-h", ""]))
    argv = [command]
    for flag in draw(st.permutations(ARGV_OPTIONS.get(command, ARGV_OPTIONS["table"]))):
        argv += [flag, draw(st.sampled_from(GOOD_VALUES[flag]))]
    change = draw(st.sampled_from(("none", "none", "none", "drop", "value", "pair", "token")))
    if change == "drop":
        del argv[-2:]
    elif change == "value":
        argv[2 * draw(st.integers(1, len(argv) // 2))] = draw(st.sampled_from(VALUES))
    elif change == "pair":
        at = 2 * draw(st.integers(0, len(argv) // 2)) + 1
        argv[at:at] = [draw(st.sampled_from(FLAGS)), draw(st.sampled_from(VALUES))]
    elif change == "token":
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(FLAGS + VALUES)))
    return argv


def _exact(options):
    # by repr, nan equals nan and 0.0 differs from -0.0, which == does not give
    return {name: repr(value) for name, value in options.items()}


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_plain_args_equal_argparse_or_none(argv):
    from specpack import cli

    plain = cli.plain_args(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = _exact(vars(cli.build_parser().parse_args(argv)))
        except SystemExit:
            parsed = None
    assert plain is None or _exact(plain) == parsed


def _argparse_error(option, value, **spec):
    # the error line of the running argparse for an option with that spec
    # given that value: its wording of an invalid choice changed in Python
    # 3.13, which quotes the value
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument(option, **spec)
    with pytest.raises(argparse.ArgumentError) as exc:
        parser.parse_args([option, value])
    return str(exc.value)


@pytest.mark.parametrize("argv,err", [
    (["table", "--rows", "x"],
     "usage: specpack table [-h] --rows ROWS [--format {md,csv}]\n"
     "specpack table: error: argument --rows: invalid int value: 'x'\n"),
    (["scan", "--dim", "4", "--max-n", "5"],
     "usage: specpack scan [-h] --dim {2,3} --max-n MAX_N\n"
     "specpack scan: error: "
     f"{_argparse_error('--dim', '4', type=int, choices=(2, 3))}\n"),
])
def test_usage_error_is_input_error(capsys, argv, err):
    # in process and as `python -m specpack`
    from specpack import cli

    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", err)
    cp = run_cli(*argv)
    assert (cp.returncode, cp.stdout, cp.stderr) == (1, "", err)
