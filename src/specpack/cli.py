"""Command-line front end.

Subcommands:
  table     render the disks-vs-squares extremal table (markdown or CSV)
  certify   check whether the squares class beats the disks class at index n
  figure    draw the optimal packing at index n as SVG
  scan      list crossover indices between two classes (2D or 3D)
  construct build a unit-area domain with a prescribed second eigenvalue
  spectrum  print the spectrum of a canonical shape as CSV

An argv COMMAND (--flag VALUE)* whose flags are the command's, each in full
and once, and whose values pass their checks is parsed from the option table
(plain_args). argparse parses every other argv (help, usage errors,
abbreviations, --flag=value, repeated flags) and is imported only for them.

Exit codes: 0 success/certified, 1 input error, 2 certification
contradiction, 3 internal accuracy failure.

run(), the entry of ``python -m specpack`` and of the installed script, is
main() then gc.freeze(), so the final collections skip the command's heap;
atexit, flushing and module teardown run as before. main() freezes nothing.
"""

import math
import sys

from . import constructions, spectra, wolfkeller
from ._kernels_py import check_integer
from .bessel import AccuracyError
from .svgfig import packing_svg

PI = math.pi


def build_table_rows(K):
    """The first K rows of the table, each a tuple of its values in the
    order of TABLE_COLUMNS; each class's one base spectrum gives its mode
    labels and its recursion's base values."""
    sides = []
    for cls in (wolfkeller.disks_class(), wolfkeller.squares_class()):
        spec = spectra.spectrum_of(cls.shape, K)
        sides += spec.expanded, wolfkeller.extremal_sequence(cls, K, spec.nonzero_values())
    disk_modes, disks_seq, square_modes, squares_seq = sides
    rows = []
    for n, (d_val, d_label), (s_val, s_label) in zip(range(1, K + 1), disk_modes, square_modes):
        s_split = squares_seq.split_value(n)  # the best split, None at n = 1
        rows.append((
            n, d_label, d_val, disks_seq.split_value(n), disks_seq.expression(n),
            disks_seq.value(n), s_label, None if s_split is None else s_split / PI**2,
            squares_seq.expression(n), squares_seq.value(n),
        ))
    return rows


def _disk_mode_cell(label):
    return f"pi j'({label[0]},{label[1]})^2"


def _square_mode_cell(label):
    j, k = label
    return f"{j * j}+{k * k}"


def _int_cell(x):
    if x is None:
        return "-"
    r = round(x)
    return str(int(r)) if abs(x - r) < 1e-6 else f"{x:.2f}"


def _or_none(cell, blank):
    return lambda x: blank if x is None else cell(x)


# The ten columns of the extremal table, one (markdown header, alignment,
# markdown cell, CSV header, CSV cell) each; a cell maps the row's value to text.
TABLE_COLUMNS = (
    ("n", "--:", str, "n", str),
    ("disk mode", ":--", _disk_mode_cell, "disk_mode", _disk_mode_cell),
    ("mu_n (disk)", "--:", "{:.3f}".format, "disk_mu_n", repr),
    ("best union", "--:", _or_none("{:.3f}".format, "-"), "disks_best_union",
     _or_none(repr, "")),
    ("disks extremal", ":--", str, "disks_extremal_expr", wolfkeller.ascii_expression),
    ("value", "--:", "{:.2f}".format, "disks_extremal", repr),
    ("square mode", ":--", _square_mode_cell, "square_mode", _square_mode_cell),
    ("best union /pi^2", "--:", _int_cell, "squares_best_union_over_pi2",
     _or_none(repr, "")),
    ("squares extremal", ":--", str, "squares_extremal_expr", wolfkeller.ascii_expression),
    ("value", "--:", "{:.2f}".format, "squares_extremal", repr),
)


def _cells(rows, at):
    """Each row's cells, by the cell functions at index `at` of TABLE_COLUMNS."""
    return ([column[at](x) for column, x in zip(TABLE_COLUMNS, row)] for row in rows)


def render_table_markdown(rows):
    header, *body = (f"| {' | '.join(cells)} |" for cells in (
        [column[0] for column in TABLE_COLUMNS], *_cells(rows, 2)))
    rule = f"|{'|'.join(column[1] for column in TABLE_COLUMNS)}|"
    return "\n".join((header, rule, *body)) + "\n"


def render_table_csv(rows):
    return spectra.csv_text([column[3] for column in TABLE_COLUMNS], _cells(rows, 4))


_FORMATS = {"md": render_table_markdown, "csv": render_table_csv}


def cmd_table(args):
    rows = build_table_rows(check_integer("--rows", args["rows"], 1))
    sys.stdout.write(_FORMATS[args["format"]](rows))
    return 0


def cmd_certify(args):
    n = check_integer("--n", args["n"], 1)
    disks = wolfkeller.extremal_sequence(wolfkeller.disks_class(), n)
    squares = wolfkeller.extremal_sequence(wolfkeller.squares_class(), n)
    d = disks.value(n)
    s = squares.value(n)
    crossover = n in wolfkeller.crossover_scan(disks, squares, n)
    if crossover:
        print(f"disks {d:.2f} < squares {s:.2f}: certified")
        return 0
    rel = "=" if d == s else (">" if d > s else "<")
    print(f"disks {d:.2f} {rel} squares {s:.2f}: not a crossover")
    return 2


def cmd_figure(args):
    n = check_integer("--n", args["n"], 1)
    cls = _CLASSES[args["shape_class"]]()
    seq = wolfkeller.extremal_sequence(cls, n)
    domain = wolfkeller.unpack_geometry(seq, n)
    annotation = f"mu_{n} = {seq.value(n):.2f} ({cls.name})"
    with open(args["out"], "w", encoding="utf-8") as fh:
        fh.write(packing_svg(domain, annotation))
    print(f"wrote {args['out']}: {len(domain.components)} components, {annotation}")
    return 0


def cmd_scan(args):
    K = check_integer("--max-n", args["max_n"], 1)
    a, b = (wolfkeller.extremal_sequence(cls(), K) for cls in _SCANS[args["dim"]])
    a_name, b_name = a.domain_class.name, b.domain_class.name
    cross = wolfkeller.crossover_scan(a, b, K)
    if not cross:
        if args["dim"] == 3:
            print(f"no crossover: for all n <= {K} a disjoint union of {a_name} beats the cube")
        else:
            print(f"no crossover: {b_name} never exceed {a_name} for n <= {K}")
        return 0
    print(f"crossover indices ({b_name} exceed {a_name}): " + ", ".join(map(str, cross)))
    for n in cross:
        print(f"  n={n}: {a_name} {a.value(n):.2f} < {b_name} {b.value(n):.2f}")
    return 0


def cmd_construct(args):
    t = args["t"]
    domain = constructions.mu2_range_domain(t)
    mu1, mu2, mu3 = constructions.verified_mu2(domain)
    if not abs(mu2 - t) <= 1e-9 * t:
        # below t ~ 1e-314 mu_2 lies deep among the subnormal floats, whose
        # few significant bits cannot hold it to a relative 1e-9
        raise AccuracyError(f"verified mu_2 = {mu2!r} does not match t = {t!r}")
    if args["svg"]:  # written first, so that a failed write prints nothing
        with open(args["svg"], "w", encoding="utf-8") as fh:
            fh.write(packing_svg(domain, f"mu_2 = {mu2:.4f}"))
    print(f"target t = {t!r}")
    for c in domain.components:
        role = "supporting" if c.support_index is not None else "filler"
        print(f"  {c.shape.describe()} area={c.volume:.10g} ({role})")
    print(f"verified: mu_1 = {mu1:.10g}, mu_2 = {mu2:.10g}, mu_3 = {mu3:.10g}")
    print(f"total area = {domain.total_volume:.15f}")
    if args["svg"]:
        print(f"wrote {args['svg']}")
    return 0


def target(text):
    """The --t value: a float, refused when its text names a nonzero number
    that underflows to 0.0 (1e-400), which would build the t = 0 domain; a
    negative zero (-0, -0.0) is that target and reads as 0.0."""
    t = float(text)
    if t == 0.0 and any(c in "123456789" for c in text.lower().partition("e")[0]):
        import argparse

        raise argparse.ArgumentTypeError(f"{text!r} underflows to 0.0")
    return t or 0.0


# The choices of --class and --dim: a class, and the pair of classes a scan
# compares, each built on demand.
_CLASSES = {"disks": wolfkeller.disks_class, "squares": wolfkeller.squares_class}
_SCANS = {
    2: (wolfkeller.disks_class, wolfkeller.squares_class),
    3: (wolfkeller.balls_class, wolfkeller.cubes_class),
}
_SHAPES = {
    "disk": spectra.disk,
    "square": spectra.square,
    "ball": spectra.ball,
    "cube": spectra.cube,
}


def cmd_spectrum(args):
    shape = _SHAPES[args["shape"]](args["bc"])
    spec = spectra.spectrum_of(shape, check_integer("--count", args["count"], 1))
    sys.stdout.write(spec.to_csv())
    return 0


# The one option table, which build_parser() and plain_args() both read: each
# subcommand's help, handler and options, one (flag, dest, type, choices,
# default) each, where the default REQUIRED marks an option that must be given.
REQUIRED = object()
COMMANDS = {
    "table": ("render the extremal table", cmd_table, (
        ("--rows", "rows", int, None, REQUIRED),
        ("--format", "format", str, tuple(_FORMATS), "md"),
    )),
    "certify": ("certify a disks/squares crossover", cmd_certify, (
        ("--n", "n", int, None, REQUIRED),
    )),
    "figure": ("draw an optimal packing as SVG", cmd_figure, (
        ("--n", "n", int, None, REQUIRED),
        ("--class", "shape_class", str, tuple(_CLASSES), REQUIRED),
        ("--out", "out", str, None, REQUIRED),
    )),
    "scan": ("scan for class crossovers", cmd_scan, (
        ("--dim", "dim", int, tuple(_SCANS), REQUIRED),
        ("--max-n", "max_n", int, None, REQUIRED),
    )),
    "construct": ("build a domain with prescribed mu_2", cmd_construct, (
        ("--t", "t", target, None, REQUIRED),
        ("--svg", "svg", str, None, None),
    )),
    "spectrum": ("print a canonical spectrum as CSV", cmd_spectrum, (
        ("--shape", "shape", str, tuple(_SHAPES), REQUIRED),
        ("--bc", "bc", str, spectra.BOUNDARY_CONDITIONS, "neumann"),
        ("--count", "count", int, None, REQUIRED),
    )),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="specpack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, dest, kind, choices, default in options:
            how = {"required": True} if default is REQUIRED else {"default": default}
            p.add_argument(flag, dest=dest, type=kind, choices=choices, **how)
        p.set_defaults(func=func)
    return parser


def plain_args(argv):
    """vars() of the namespace argparse gives for argv, when argv is COMMAND
    (--flag VALUE)* with each flag one of the command's, spelled in full and
    given once, every required flag given, and each VALUE not starting with
    "-" and passing its option's type and choices; None for any other argv."""
    spec = COMMANDS.get(argv[0]) if argv else None
    given = dict(zip(argv[1::2], argv[2::2]))
    # a repeated flag or a flag without a value leaves fewer pairs than argv holds
    if spec is None or 2 * len(given) + 1 != len(argv) or any(
            value.startswith("-") for value in given.values()):
        return None
    args = {"command": argv[0], "func": spec[1]}
    for flag, dest, kind, choices, default in spec[2]:
        if flag not in given:
            args[dest] = default
            continue
        try:
            args[dest] = kind(given.pop(flag))
        except Exception:  # argparse reports what a type raises, or raises it
            return None
        if choices is not None and args[dest] not in choices:
            return None
    # a flag left is not the command's; a REQUIRED left was not given
    return None if given or REQUIRED in args.values() else args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = plain_args(argv)
    if args is None:
        try:
            args = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            # a usage error (argparse exits 2) is an input error here: exit 1
            return 1 if exc.code else 0
    try:
        return args["func"](args)
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    import gc  # only the process entry needs it: `import specpack.cli` loads nothing new

    status = main()
    gc.freeze()
    return status
