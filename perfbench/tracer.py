"""Traced specpack command: the per-layer half of the benchmark.

Run as a script, this file runs one specpack CLI command in its own fresh
interpreter, the way ``python -m specpack`` does, but with wrappers around
the public functions of each layer:

    python perfbench/tracer.py OUT.json <specpack arguments...>

The command's stdout and exit code are those of the CLI, so the caller can
check them exactly as for an untraced run. The spans and counters stay in
memory and are written to OUT.json when the command has finished.

Layers, by module: ``kernels`` (whatever ``specpack.backend.kernels``
resolves to), ``bessel``, ``spectra``, ``wolfkeller``, ``constructions`` and
``cli`` (which includes ``svgfig``). Each wrapper records a span
``[name, tag, start, end, parent]``; kernel evaluations are only counted,
because a span per evaluation would cost more than the evaluation.

Imported as a module, this file gives ``pass_metrics``, which turns the
records of one pass into the per-layer metrics.

Which end-to-end metric each layer metric should move, and where:

    kernels.evals.*, kernels.evals_per_zero.*   wall_s on scan2d (bessel_prime)
                                                and scan3d (spherical_prime)
    bessel.zeros*, bessel.zero_s.*,             wall_s on scan2d; on scan3d for
    bessel.max_order.*, bessel.max_x.*          the spherical_prime kind
    spectra.build_s.*, spectra.self_s,          wall_s on scan2d
    spectra.zero_yield.*
    wolfkeller.recursion_s.*, .leaves.*,        wall_s on scan3d (most of it)
    wolfkeller.scan_s, wolfkeller.min_rel_gap   and scan2d (a few percent)
    cli.self_s, constructions.self_s, import_s  setup_s, and wall_s on readme

Evaluation counts are those the Python kernels make; a compiled backend
hides its internal calls, so compare counts only between runs on the same
backend (the run records which).
"""

import json
import math
import sys
import time

KINDS = ("bessel_prime", "bessel", "spherical_prime")
SHAPES = ("disk", "rectangle", "ball", "box")
CLASSES = ("disks", "squares", "balls", "cubes")
LAYERS = ("kernels", "bessel", "spectra", "wolfkeller", "constructions", "cli")

# kernel function whose evaluations locate the zeros of each kind
EVAL_FN = {
    "bessel_prime": "bessel_j_prime",
    "bessel": "bessel_j",
    "spherical_prime": "spherical_j_prime",
}

# spectrum builders and the zero kind each one tabulates (None: no zeros)
BUILDERS = {
    "disk_spectrum": ("disk", lambda bc: "bessel_prime" if bc == "neumann" else "bessel"),
    "rectangle_spectrum": ("rectangle", None),
    "ball_spectrum": ("ball", lambda bc: "spherical_prime"),
    "box_spectrum": ("box", None),
}


def _metric_units():
    units = {}
    for kind in KINDS:
        units[f"kernels.evals.{kind}"] = "count"
        units[f"kernels.evals_per_zero.{kind}"] = "ratio"
        units[f"bessel.zeros.{kind}"] = "count"
        units[f"bessel.zero_s.{kind}"] = "s"
        units[f"bessel.zeros_per_s.{kind}"] = "1/s"
        units[f"bessel.max_order.{kind}"] = "order"
        units[f"bessel.max_x.{kind}"] = "x"
        units[f"spectra.zero_yield.{kind}"] = "ratio"
    units["bessel.lookups"] = "count"
    for shape in SHAPES:
        units[f"spectra.build_s.{shape}"] = "s"
    for name in CLASSES:
        units[f"wolfkeller.recursion_s.{name}"] = "s"
        units[f"wolfkeller.leaves.{name}"] = "count"
    units["wolfkeller.scan_s"] = "s"
    units["wolfkeller.min_rel_gap"] = "ratio"
    units["import_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"share.{layer}"] = "ratio"
    units["share.import"] = "ratio"
    return units


# name -> unit of every metric pass_metrics returns
METRICS = _metric_units()


class Trace:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.evals = {fn: 0 for fn in EVAL_FN.values()}
        self.sequences = []  # ExtremalSequence results, analysed at the end
        self.scans = []  # (seq_a, seq_b, K) of each crossover scan
        self.modes = {}  # zero kind -> modes in the largest spectrum built
        self.in_kernel = [False]  # inside a counted kernel call

    def span(self, name, fn, tag=None, on_result=None):
        """Wrap fn so that each call records one span."""
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            rec = [name, tag(args) if tag else "", 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if on_result:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, fn_name, fn):
        """Wrap fn so that each outermost call adds one to its count.

        A call made from inside another counted kernel (J'_0 evaluates J_1)
        is not counted again.
        """
        evals = self.evals
        in_kernel = self.in_kernel

        def wrapper(*args):
            if in_kernel[0]:
                return fn(*args)
            in_kernel[0] = True
            evals[fn_name] += 1
            try:
                return fn(*args)
            finally:
                in_kernel[0] = False

        return wrapper


def _rebind(orig, wrapper):
    """Replace orig by wrapper wherever a specpack module binds it."""
    targets = [m for n, m in sys.modules.items() if n == "specpack" or n.startswith("specpack.")]
    found = False
    for target in targets:
        for attr, value in list(vars(target).items()):
            if value is orig:
                setattr(target, attr, wrapper)
                found = True
    if not found:
        raise RuntimeError(f"no binding of {orig!r} to patch")


def install(trace):
    """Install the layer wrappers into the imported specpack modules."""
    from specpack import backend, bessel, cli, constructions, spectra, wolfkeller

    kernels = backend.kernels
    code_kind = {code: kind for kind, code in bessel._KIND_CODE.items()}
    for fn_name in EVAL_FN.values():
        orig = getattr(kernels, fn_name)
        _rebind(orig, trace.counter(fn_name, orig))
    _rebind(
        kernels.next_zero,
        trace.span("kernels.next_zero", kernels.next_zero, tag=lambda a: code_kind[a[0]]),
    )

    bessel.ZeroTable.positive_zero = trace.span(
        "bessel.positive_zero", bessel.ZeroTable.positive_zero, tag=lambda a: a[0].kind
    )

    for fn_name, (shape, kind_of) in BUILDERS.items():
        def keep_modes(args, spec, kind_of=kind_of):
            if kind_of is not None:
                kind = kind_of(args[0])
                trace.modes[kind] = max(trace.modes.get(kind, 0), len(spec.modes))

        orig = getattr(spectra, fn_name)
        _rebind(orig, trace.span(f"spectra.{fn_name}", orig, tag=lambda a, s=shape: s,
                                 on_result=keep_modes))
    _rebind(spectra.union_spectrum, trace.span("spectra.union_spectrum", spectra.union_spectrum))

    _rebind(
        wolfkeller.extremal_sequence,
        trace.span(
            "wolfkeller.extremal_sequence",
            wolfkeller.extremal_sequence,
            tag=lambda a: a[0].name,
            on_result=lambda a, seq: trace.sequences.append(seq),
        ),
    )
    _rebind(
        wolfkeller.crossover_scan,
        trace.span(
            "wolfkeller.crossover_scan",
            wolfkeller.crossover_scan,
            on_result=lambda a, out: trace.scans.append(a),
        ),
    )
    _rebind(wolfkeller.unpack_geometry,
            trace.span("wolfkeller.unpack_geometry", wolfkeller.unpack_geometry))

    for fn_name in ("mu2_range_domain", "verified_mu2"):
        orig = getattr(constructions, fn_name)
        _rebind(orig, trace.span(f"constructions.{fn_name}", orig))

    return trace.span("cli.main", cli.main)


def _min_rel_gap(seq_a, seq_b, K):
    # closest crossover decision: the smallest |gap| / max(|a|, |b|)
    best = math.inf
    for n in range(1, K + 1):
        va = seq_a.value(n)
        vb = seq_b.value(n)
        best = min(best, abs(vb - va) / max(abs(va), abs(vb)))
    return best


def finish(trace, import_s):
    """The record of this process: spans, counters and table reach."""
    from specpack import bessel, wolfkeller

    tables = {}
    for kind in KINDS:
        entries = bessel.default_table(kind).entries()
        tables[kind] = {
            "zeros": len(entries),
            "max_order": max((idx.order for idx in entries), default=0),
            "max_x": max(entries.values(), default=0.0),
        }
    leaves = {}
    for seq in trace.sequences:
        # indices whose optimum is connected outright; a tie with a split
        # is not a leaf the recursion needs
        name = seq.domain_class.name
        count = 0
        for n in range(1, seq.K + 1):
            dec = seq.decomposition(n)
            count += isinstance(dec, wolfkeller.Connected) and not dec.tie
        leaves[name] = max(leaves.get(name, 0), count)
    gaps = [_min_rel_gap(*scan) for scan in trace.scans]
    return {
        "import_s": import_s,
        "spans": trace.spans,
        "evals": trace.evals,
        "tables": tables,
        "modes": trace.modes,
        "leaves": leaves,
        "min_rel_gap": min(gaps) if gaps else None,
    }


def _self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def pass_metrics(records, wall_s):
    """Per-layer metrics of one traced pass.

    ``records`` are the records written by the pass's commands, one fresh
    process each, and ``wall_s`` is the pass's wall time as its parent saw
    it. Counts and times add up over the commands; reach (max order, max x,
    leaves) takes the largest, and the closest gap the smallest.
    """
    m = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    zero_s = dict.fromkeys(KINDS, 0.0)
    build_s = dict.fromkeys(SHAPES, 0.0)
    recursion_s = dict.fromkeys(CLASSES, 0.0)
    lookups = 0
    scan_s = 0.0
    evals = dict.fromkeys(EVAL_FN.values(), 0)
    zeros = dict.fromkeys(KINDS, 0)
    modes = dict.fromkeys(KINDS, 0)
    max_order = dict.fromkeys(KINDS, 0)
    max_x = dict.fromkeys(KINDS, 0.0)
    leaves = dict.fromkeys(CLASSES, 0)
    gaps = []
    import_s = 0.0
    for rec in records:
        spans = rec["spans"]
        for (name, tag, start, end, _), own in zip(spans, _self_times(spans)):
            layer_self[name.split(".", 1)[0]] += own
            if name == "bessel.positive_zero":
                zero_s[tag] += end - start
                lookups += 1
            elif name.startswith("spectra.") and tag in build_s:
                build_s[tag] += end - start
            elif name == "wolfkeller.extremal_sequence" and tag in recursion_s:
                recursion_s[tag] += own
            elif name == "wolfkeller.crossover_scan":
                scan_s += end - start
        for fn_name, count in rec["evals"].items():
            evals[fn_name] += count
        for kind, table in rec["tables"].items():
            zeros[kind] += table["zeros"]
            max_order[kind] = max(max_order[kind], table["max_order"])
            max_x[kind] = max(max_x[kind], table["max_x"])
        for kind, count in rec["modes"].items():
            modes[kind] += count
        for name, count in rec["leaves"].items():
            if name in leaves:
                leaves[name] = max(leaves[name], count)
        if rec["min_rel_gap"] is not None:
            gaps.append(rec["min_rel_gap"])
        import_s += rec["import_s"]

    for kind in KINDS:
        n_evals = evals[EVAL_FN[kind]]
        m[f"kernels.evals.{kind}"] = n_evals
        m[f"kernels.evals_per_zero.{kind}"] = n_evals / zeros[kind] if zeros[kind] else 0.0
        m[f"bessel.zeros.{kind}"] = zeros[kind]
        m[f"bessel.zero_s.{kind}"] = zero_s[kind]
        m[f"bessel.zeros_per_s.{kind}"] = zeros[kind] / zero_s[kind] if zero_s[kind] else 0.0
        m[f"bessel.max_order.{kind}"] = max_order[kind]
        m[f"bessel.max_x.{kind}"] = max_x[kind]
        m[f"spectra.zero_yield.{kind}"] = modes[kind] / zeros[kind] if zeros[kind] else 0.0
    m["bessel.lookups"] = lookups
    for shape in SHAPES:
        m[f"spectra.build_s.{shape}"] = build_s[shape]
    for name in CLASSES:
        m[f"wolfkeller.recursion_s.{name}"] = recursion_s[name]
        m[f"wolfkeller.leaves.{name}"] = leaves[name]
    m["wolfkeller.scan_s"] = scan_s
    m["wolfkeller.min_rel_gap"] = min(gaps) if gaps else 0.0
    m["import_s"] = import_s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"share.{layer}"] = layer_self[layer] / wall_s
    m["share.import"] = import_s / wall_s
    return m


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import specpack.cli  # noqa: F401  (the import every command pays)

    import_s = time.perf_counter() - t0
    trace = Trace()
    run = install(trace)
    code = run(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(finish(trace, import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
