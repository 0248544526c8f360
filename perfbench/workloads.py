"""The benchmark's workloads: the specpack commands of one pass, made from a
seed, and the checks of their outputs.

The reference files under ``reference/`` were written by the pure-Python
kernels at the commit that added this benchmark:

    table_k25.md          table --rows 25 --format md (a byte copy of
                          tests/golden/table_k25.md)
    table_k25.csv         table --rows 25 --format csv
    certify_n22.txt       certify --n 22
    scan2d_3000.txt       scan --dim 2 --max-n 3000
    figure_n22_disks.*    figure --n 22 --class disks --out figure_n22_disks.svg
                          (stdout and SVG bytes)
    spectrum_ball_10.csv  spectrum --shape ball --count 10

A seed changes only inputs whose outputs can still be checked exactly: the
``--max-n`` of the scans within a narrow band (the scan's lines for n <= K do
not depend on K), the ``construct --t`` value (checked against the verified
mu_2 and total area it prints), and the order of the README commands.
"""

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

# Every n <= 3000 at which the squares class beats the disks class.
CROSSOVERS_2D = (
    22, 23, 83, 142, 143, 185, 186, 187, 188, 189, 190, 238, 239, 240, 241,
    242, 243, 394, 395, 396, 397, 398, 471, 549, 550, 730, 731, 732, 733, 734,
    735, 736, 1107, 1216, 1217, 1218, 1219, 1220, 1221, 1222, 1223, 1224, 1225,
    1483, 1484, 1485, 1486, 1701, 2502, 2503,
)

SCAN_BAND = (2950, 3000)  # --max-n of scan2d and scan3d
CONSTRUCT_T = (0.5, 21.0)  # inside [0, 2 pi j'_{1,1}^2] = [0, 21.30...]
FIGURE_OUT = "packing.svg"  # written in the pass's working directory


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of what it produced.

    ``check(code, stdout, workdir)`` returns None when the output is right,
    else a one-line description of the first difference.
    """

    argv: tuple
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable  # seed -> list of Command


def raw(name):
    return (REFERENCE / name).read_bytes()


def text(name):
    return raw(name).decode("utf-8")


def _scan2d_lines():
    lines = text("scan2d_3000.txt").splitlines()
    recorded = tuple(int(n) for n in lines[0].split(": ", 1)[1].split(", "))
    if recorded != CROSSOVERS_2D:
        raise RuntimeError("reference/scan2d_3000.txt disagrees with CROSSOVERS_2D")
    return {int(re.match(r"  n=(\d+):", ln).group(1)): ln for ln in lines[1:]}


def scan2d_output(K):
    """`scan --dim 2 --max-n K` for K <= 3000: the reference, cut at K."""
    lines = _scan2d_lines()
    shown = [n for n in CROSSOVERS_2D if n <= K]
    head = "crossover indices (squares exceed disks): " + ", ".join(map(str, shown))
    return "\n".join([head] + [lines[n] for n in shown]) + "\n"


def scan3d_output(K):
    return f"no crossover: for all n <= {K} a disjoint union of balls beats the cube\n"


def _diff(got, want):
    if got == want:
        return None
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"output differs at char {i}: got {got[i:i + 30]!r}, want {want[i:i + 30]!r}"
    return f"output length {len(got)}, want {len(want)}"


def exact(want):
    """Exit code 0 and stdout equal to `want`."""

    def check(code, stdout, workdir):
        if code != 0:
            return f"exit code {code}, want 0"
        return _diff(stdout, want)

    return check


def figure_check(want_stdout, want_svg):
    def check(code, stdout, workdir):
        problem = exact(want_stdout)(code, stdout, workdir)
        if problem:
            return problem
        out = Path(workdir) / FIGURE_OUT
        try:
            svg = out.read_bytes()
        except OSError as exc:
            return f"no SVG written: {exc}"
        finally:
            out.unlink(missing_ok=True)
        return None if svg == want_svg else "SVG bytes differ from the reference"

    return check


_NUM = r"([-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?)"
_VERIFIED = re.compile(rf"verified: mu_1 = {_NUM}, mu_2 = {_NUM}, mu_3 = {_NUM}$")
_AREA = re.compile(rf"  \S.* area={_NUM} \((supporting|filler)\)$")
_TOTAL = re.compile(rf"total area = {_NUM}$")


def construct_check(t):
    """`construct --t t` must print a unit-area domain whose verified mu_2 is t."""

    def check(code, stdout, workdir):
        if code != 0:
            return f"exit code {code}, want 0"
        lines = stdout.splitlines()
        if len(lines) < 4 or lines[0] != f"target t = {t!r}":
            return f"unexpected header {lines[:1]!r}"
        areas = [_AREA.match(ln) for ln in lines[1:-2]]
        if not areas or None in areas or not any(a.group(2) == "supporting" for a in areas):
            return "component lines malformed or no supporting component"
        verified = _VERIFIED.match(lines[-2])
        if not verified:
            return f"no verified line: {lines[-2]!r}"
        mu1, mu2, mu3 = (float(v) for v in verified.groups())
        if mu1 != 0.0 or abs(mu2 - t) > 1e-9 * max(1.0, t) or not mu3 >= mu2:
            return f"verified mu = ({mu1}, {mu2}, {mu3}) does not realize t = {t}"
        total = _TOTAL.match(lines[-1])
        if not total:
            return f"no total area line: {lines[-1]!r}"
        total = float(total.group(1))
        parts = sum(float(a.group(1)) for a in areas)
        if abs(total - 1.0) > 1e-12 or abs(parts - 1.0) > 1e-8:
            return f"total area {total!r} (components {parts!r}), want 1"
        return None

    return check


def scan2d_commands(seed):
    K = random.Random(seed).randint(*SCAN_BAND)
    return [Command(("scan", "--dim", "2", "--max-n", str(K)), exact(scan2d_output(K)))]


def scan3d_commands(seed):
    K = random.Random(seed).randint(*SCAN_BAND)
    return [Command(("scan", "--dim", "3", "--max-n", str(K)), exact(scan3d_output(K)))]


def readme_commands(seed):
    rng = random.Random(seed)
    t = round(rng.uniform(*CONSTRUCT_T), 3)
    commands = [
        Command(("table", "--rows", "25", "--format", "md"), exact(text("table_k25.md"))),
        Command(("table", "--rows", "25", "--format", "csv"), exact(text("table_k25.csv"))),
        Command(("certify", "--n", "22"), exact(text("certify_n22.txt"))),
        Command(("scan", "--dim", "2", "--max-n", "83"), exact(scan2d_output(83))),
        Command(("scan", "--dim", "3", "--max-n", "640"), exact(scan3d_output(640))),
        Command(
            ("figure", "--n", "22", "--class", "disks", "--out", FIGURE_OUT),
            figure_check(
                text("figure_n22_disks.txt").replace("figure_n22_disks.svg", FIGURE_OUT),
                raw("figure_n22_disks.svg"),
            ),
        ),
        Command(("construct", "--t", repr(t)), construct_check(t)),
        Command(("spectrum", "--shape", "ball", "--count", "10"),
                exact(text("spectrum_ball_10.csv"))),
    ]
    rng.shuffle(commands)
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan2d",
            "The stress run: J' zero finding for a 3000-mode disk spectrum dominates it, "
            "so kernel and zero-finder changes show here.",
            scan2d_commands,
        ),
        Workload(
            "scan3d",
            "The recursion over balls and cubes dominates and J' zeros are absent, so a "
            "recursion change shows here and a J' zero-finder change should not.",
            scan3d_commands,
        ),
        Workload(
            "readme",
            "The eight README commands in fresh processes: start-up, import and many small "
            "tables, so work moved into import time shows here.",
            readme_commands,
        ),
    )
}


def corrupted(stdout):
    """A plausible wrong output: one crossover index dropped, else one
    character changed. Used to check that the checks catch it."""
    m = re.search(r"(\d+), ", stdout)
    if stdout.startswith("crossover indices") and m:
        return stdout[: m.start()] + stdout[m.end():]
    i = len(stdout) // 2
    return stdout[:i] + ("#" if stdout[i:i + 1] != "#" else "%") + stdout[i + 1:]
