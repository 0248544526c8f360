"""List the lines of ``src/specpack`` that the test suite never runs.

    python tools/line_audit.py [pytest arguments]

Runs the suite (``python -m pytest -q --continue-on-collection-errors``, plus
any arguments given) in a fresh interpreter with a generated
``sitecustomize`` first on PYTHONPATH.  Every Python process of the run
imports it at start-up, the CLI subprocesses the tests start included, and it
records with the standard library's ``sys.settrace`` each line of the
package that the process executes, writing them out when the process exits.
A line counts as executable when the compiled code of its file maps an
instruction to it.  The audit prints each executable line that no process
ran, as ``path:line: source``, then their count out of all executable lines.
It is a gate: it exits with the suite's status when the suite fails, and
with status 1 when the suite passes but a line never ran.  Tracing makes the
suite about four times slower.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "specpack"

# Written into a temporary directory as sitecustomize.py, with the package
# directory and the output directory filled in.
COLLECTOR = '''\
import atexit
import json
import os
import sys

_PACKAGE = {package!r}
_OUT = {out!r}
_lines = {{}}
_traced = {{}}


def _local(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    traced = _traced.get(code.co_filename)
    if traced is None:
        traced = _traced[code.co_filename] = code.co_filename.startswith(_PACKAGE)
        if traced:
            _lines.setdefault(code.co_filename, set())
    if not traced:
        return None
    _lines[code.co_filename].add(frame.f_lineno)
    return _local


def _dump():
    sys.settrace(None)
    path = os.path.join(_OUT, str(os.getpid()) + ".json")
    with open(path, "w") as fh:
        json.dump({{f: sorted(ls) for f, ls in _lines.items()}}, fh)


atexit.register(_dump)
sys.settrace(_global)
'''


def executable_lines(path):
    """Line numbers that the compiled code of a source file maps to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        hook = Path(tmp) / "hook"
        out = Path(tmp) / "out"
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(
            COLLECTOR.format(package=str(PACKAGE) + os.sep, out=str(out))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *argv],
            cwd=REPO,
            env=env,
        ).returncode
        ran = {}
        for record in out.glob("*.json"):
            for name, lines in json.loads(record.read_text()).items():
                ran.setdefault(os.path.realpath(name), set()).update(lines)

    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(os.path.realpath(path), set()))
        for line in missed:
            print(f"{path.relative_to(REPO)}:{line}: {source[line - 1].strip()}")
        total += len(lines)
        unrun += len(missed)
    print(f"{unrun} of {total} executable lines of {PACKAGE.relative_to(REPO)} never ran")
    return status or (1 if unrun else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
