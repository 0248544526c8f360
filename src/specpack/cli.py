"""Command-line front end.

Subcommands:
  table     render the disks-vs-squares extremal table (markdown or CSV)
  certify   check whether the squares class beats the disks class at index n
  figure    draw the optimal packing at index n as SVG
  scan      list crossover indices between two classes (2D or 3D)
  construct build a unit-area domain with a prescribed second eigenvalue
  spectrum  print the spectrum of a canonical shape as CSV

Exit codes: 0 success/certified, 1 input error, 2 certification
contradiction, 3 internal accuracy failure.
"""

import argparse
import math
import sys
from collections import namedtuple

from . import constructions, spectra, wolfkeller
from .bessel import AccuracyError
from .svgfig import packing_svg

PI = math.pi


class TableRow(namedtuple("TableRow", [
    "n",
    "disk_label",
    "disk_value",
    "disks_split_value",  # None at n = 1
    "disks_expr",
    "disks_class_value",
    "square_label",
    "squares_split_pi2",  # best split value / pi^2; None at n = 1
    "squares_expr",
    "squares_class_value",
])):
    """One row of the ten-column extremal table."""

    __slots__ = ()


def build_table_rows(K):
    disk_spec = spectra.disk_spectrum("neumann", K)
    square_spec = spectra.rectangle_spectrum(1.0, 1.0, "neumann", K)
    disks_seq = wolfkeller.extremal_sequence(wolfkeller.disks_class(), K)
    squares_seq = wolfkeller.extremal_sequence(wolfkeller.squares_class(), K)
    rows = []
    for n, (d_val, d_label), (s_val, s_label) in zip(
        range(1, K + 1), disk_spec.expanded, square_spec.expanded
    ):
        d_split = disks_seq.split_value(n)
        s_split = squares_seq.split_value(n)
        rows.append(
            TableRow(
                n=n,
                disk_label=d_label,
                disk_value=d_val,
                disks_split_value=d_split,
                disks_expr=disks_seq.expression(n),
                disks_class_value=disks_seq.value(n),
                square_label=s_label,
                squares_split_pi2=None if s_split is None else s_split / PI**2,
                squares_expr=squares_seq.expression(n),
                squares_class_value=squares_seq.value(n),
            )
        )
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


def render_table_markdown(rows):
    header = (
        "| n | disk mode | mu_n (disk) | best union | disks extremal | value "
        "| square mode | best union /pi^2 | squares extremal | value |"
    )
    rule = "|--:|:--|--:|--:|:--|--:|:--|--:|:--|--:|"
    lines = [header, rule]
    for r in rows:
        lines.append(
            "| {n} | {dlab} | {dval:.3f} | {dsplit} | {dexpr} | {dcls:.2f} "
            "| {slab} | {ssplit} | {sexpr} | {scls:.2f} |".format(
                n=r.n,
                dlab=_disk_mode_cell(r.disk_label),
                dval=r.disk_value,
                dsplit="-" if r.disks_split_value is None else f"{r.disks_split_value:.3f}",
                dexpr=r.disks_expr,
                dcls=r.disks_class_value,
                slab=_square_mode_cell(r.square_label),
                ssplit=_int_cell(r.squares_split_pi2),
                sexpr=r.squares_expr,
                scls=r.squares_class_value,
            )
        )
    return "\n".join(lines) + "\n"


def render_table_csv(rows):
    return spectra.csv_text(
        [
            "n",
            "disk_mode",
            "disk_mu_n",
            "disks_best_union",
            "disks_extremal_expr",
            "disks_extremal",
            "square_mode",
            "squares_best_union_over_pi2",
            "squares_extremal_expr",
            "squares_extremal",
        ],
        (
            [
                r.n,
                _disk_mode_cell(r.disk_label),
                repr(r.disk_value),
                "" if r.disks_split_value is None else repr(r.disks_split_value),
                r.disks_expr.replace("μ_", "mu").replace(" ", ""),
                repr(r.disks_class_value),
                _square_mode_cell(r.square_label),
                "" if r.squares_split_pi2 is None else repr(r.squares_split_pi2),
                r.squares_expr.replace("μ_", "mu").replace(" ", ""),
                repr(r.squares_class_value),
            ]
            for r in rows
        ),
    )


def cmd_table(args):
    if args.rows < 1:
        raise ValueError("--rows must be >= 1")
    rows = build_table_rows(args.rows)
    if args.format == "md":
        sys.stdout.write(render_table_markdown(rows))
    else:
        sys.stdout.write(render_table_csv(rows))
    return 0


def cmd_certify(args):
    n = args.n
    if n < 1:
        raise ValueError("--n must be >= 1")
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
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    cls = wolfkeller.disks_class() if args.shape_class == "disks" else wolfkeller.squares_class()
    seq = wolfkeller.extremal_sequence(cls, args.n)
    domain = wolfkeller.unpack_geometry(seq, args.n)
    annotation = f"mu_{args.n} = {seq.value(args.n):.2f} ({args.shape_class})"
    svg = packing_svg(domain, annotation)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}: {len(domain.components)} components, {annotation}")
    return 0


def cmd_scan(args):
    K = args.max_n
    if K < 1:
        raise ValueError("--max-n must be >= 1")
    if args.dim == 2:
        a = wolfkeller.extremal_sequence(wolfkeller.disks_class(), K)
        b = wolfkeller.extremal_sequence(wolfkeller.squares_class(), K)
        names = ("disks", "squares")
    else:
        a = wolfkeller.extremal_sequence(wolfkeller.balls_class(), K)
        b = wolfkeller.extremal_sequence(wolfkeller.cubes_class(), K)
        names = ("balls", "cubes")
    cross = wolfkeller.crossover_scan(a, b, K)
    if not cross:
        if args.dim == 3:
            print(
                f"no crossover: for all n <= {K} a disjoint union of balls "
                f"beats the cube"
            )
        else:
            print(f"no crossover: {names[1]} never exceed {names[0]} for n <= {K}")
        return 0
    print(f"crossover indices ({names[1]} exceed {names[0]}): "
          + ", ".join(map(str, cross)))
    for n in cross:
        print(f"  n={n}: {names[0]} {a.value(n):.2f} < {names[1]} {b.value(n):.2f}")
    return 0


def cmd_construct(args):
    domain = constructions.mu2_range_domain(args.t)
    mu1, mu2, mu3 = constructions.verified_mu2(domain)
    if not abs(mu2 - args.t) <= 1e-9 * args.t:
        # below t ~ 1e-314 mu_2 lies deep among the subnormal floats, whose
        # few significant bits cannot hold it to a relative 1e-9
        raise AccuracyError(f"verified mu_2 = {mu2!r} does not match t = {args.t!r}")
    print(f"target t = {args.t!r}")
    for c in domain.components:
        role = "supporting" if c.support_index is not None else "filler"
        print(f"  {c.shape.describe()} area={c.volume:.10g} ({role})")
    print(f"verified: mu_1 = {mu1:.10g}, mu_2 = {mu2:.10g}, mu_3 = {mu3:.10g}")
    print(f"total area = {domain.total_volume:.15f}")
    if args.svg:
        svg = packing_svg(domain, f"mu_2 = {mu2:.4f}")
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")
    return 0


def target(text):
    """The --t value: a float, refused when its text names a nonzero number
    that underflows to 0.0 (1e-400), which would build the t = 0 domain."""
    t = float(text)
    if t == 0.0 and any(c in "123456789" for c in text.lower().partition("e")[0]):
        raise argparse.ArgumentTypeError(f"{text!r} underflows to 0.0")
    return t


_SHAPES = {
    "disk": spectra.disk,
    "square": spectra.square,
    "ball": spectra.ball,
    "cube": spectra.cube,
}


def cmd_spectrum(args):
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    shape = _SHAPES[args.shape](args.bc)
    spec = spectra.spectrum_of(shape, args.count)
    sys.stdout.write(spec.to_csv())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="specpack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="render the extremal table")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("certify", help="certify a disks/squares crossover")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("figure", help="draw an optimal packing as SVG")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="shape_class", choices=("disks", "squares"),
                   required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("scan", help="scan for class crossovers")
    p.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("construct", help="build a domain with prescribed mu_2")
    p.add_argument("--t", type=target, required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("spectrum", help="print a canonical spectrum as CSV")
    p.add_argument("--shape", choices=tuple(_SHAPES), required=True)
    p.add_argument("--bc", choices=("neumann", "dirichlet"), default="neumann")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # a usage error (argparse exits 2) is an input error here: exit 1
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

