"""Line coverage of ``src/cflab`` with the standard library alone.

    python tests/line_coverage.py                  # the product paths
    python tests/line_coverage.py --tier1 [ARGS]   # the tier-1 tests (ARGS go to pytest)
    PYTHONPATH=src:tests python -m pytest -p line_coverage   # the same, as a plugin

A module's executable lines are the line numbers of its compiled code objects
(``co_lines()``, nested code included); ``sys.settrace`` records the lines
that run.  The product paths are what the command line and the benchmark
run: ``cflab suite`` at seeds 7, 101 and 211 in all three formats, one
``verify_mix`` round at seed 101 (its command lines come from
``perfbench/workloads.py``), the first six ``pointwise`` operations at seed
101 and the README's ``cflab verify`` lines.  The tier-1 mode loads this file
as a pytest plugin (``-p line_coverage``), which traces the whole session.

Both print each module's count of executable lines run, then every
statement with a line that never ran, with its reason if :data:`REASONS`
gives one, the number of such statements without a reason, and any reason
that names no line.  ``--changed FILE ...``, last on the command line,
lists only the statements of those files.  pytest does not collect this
file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import shlex
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cflab"

# Statements that tier-1 or the product paths never run on purpose, by module
# and the text of the statement's first line, each with its reason.
REASONS = {
    # never run by tier-1
    ("cli.py", "argv = sys.argv[1:]"):
        "runs only under `python -m cflab.cli`, which test_cli starts in a "
        "subprocess (test_python_m_cflab_cli_matches_run_cli) that this tracer "
        "does not follow",
    ("cli.py", "sys.exit(run_cli())"):
        "the same subprocess",
    ("cli.py", "main()"):
        "the same subprocess",
    # never run by the product paths, and kept
    ("forms.py", "return complex(d_numeric_many(form, (point,), (vectors,))[0])"):
        "forms.d_numeric: perfbench's tracer wraps it by name; it goes once "
        "the benchmark stops counting its calls",
    ("forms.py", "frames = frames.reshape(len(frames), 0, self.dim)"):
        "degree-0 forms: test_kernels' n = 1 omega' reference, which the "
        "fused kernel equals bit for bit, is one",
    ("forms.py", "return np.ones((len(keys), m), dtype=complex)"):
        "degree-0 forms: the minors of frames of no vectors, for the same "
        "n = 1 reference",
    ("forms.py", "return complex(a) * complex(b)"):
        "forms.mul on mixed Python numbers: "
        "test_numbers_take_pythons_own_operators pins it as the arithmetic "
        "of forms",
    ("forms.py", "return complex(a) ** n"):
        "forms.power on mixed Python numbers: the same test",
    ("exprlang.py",
     'return {k: v for k, v in vars(self).items() if k not in ("_operand", "_fn")}'):
        "_Node.__getstate__: without it a tree pickles before it is "
        "evaluated and fails after",
}


# ------------------------------------------------------------------ lines

def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no line
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Tracer:
    """The lines of ``src/cflab`` run while it is started, by file name; a
    tracer that was set before it is set again when it stops."""

    def __init__(self):
        self.hits = {path.name: set() for path in sorted(PACKAGE.glob("*.py"))}
        self._local = {}  # co_filename -> its local trace function, or None
        self._previous = None, None

    def _local_for(self, filename):
        path = Path(filename).resolve()
        if path.parent != PACKAGE or path.name not in self.hits:
            return None
        add = self.hits[path.name].add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        local.add = add
        return local

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._local:
            self._local[filename] = self._local_for(filename)
        local = self._local[filename]
        if local is not None:
            local.add(frame.f_lineno)  # a def line, or a generator's resumed line
        return local

    def start(self):
        if any(name == "cflab" or name.startswith("cflab.") for name in sys.modules):
            print("line_coverage: cflab was imported before tracing; its import "
                  "lines read as never run", file=sys.stderr)
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def _statements(tree) -> list[tuple[int, int]]:
    """(first line, last line) of every statement and ``except`` clause of
    ``tree``, a decorated definition from its first decorator."""
    return [(min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())]),
             node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.stmt, ast.ExceptHandler))]


def report(hits, changed=()) -> list[str]:
    """The report's lines: counts, never-run statements (of the ``changed``
    file names only, if any are given) and :func:`stale_reasons`."""
    counts, listed, unexplained = [], [], 0
    for name, run in hits.items():
        path = PACKAGE / name
        lines = executable_lines(path)
        counts.append((name, len(lines & run), len(lines)))
        source = path.read_text().splitlines()
        statements = _statements(ast.parse(path.read_text()))
        firsts = {}  # the innermost statement of each never-run line
        for line in sorted(lines - run):
            first = max(start for start, end in statements if start <= line <= end)
            firsts.setdefault(first, []).append(line)
        for first, missing in firsts.items():
            text = source[first - 1].strip()
            reason = REASONS.get((name, text))
            unexplained += reason is None
            if not changed or name in changed:
                listed.append(f"src/cflab/{name}:{','.join(map(str, missing))}: {text}"
                              + (f"\n    reason: {reason}" if reason else ""))
    run, total = sum(n for _, n, _ in counts), sum(m for _, _, m in counts)
    return ([f"{name:14} {n:5} of {m:5} lines run" for name, n, m in counts]
            + [f"{'total':14} {run:5} of {total:5} lines run ({100 * run / total:.1f} %)",
               f"statements with a line never run"
               f"{' in ' + ', '.join(sorted(changed)) if changed else ''}: {len(listed)}",
               *listed, f"never-run statements without a reason: {unexplained}"]
            + [f"stale reason: {entry}" for entry in stale_reasons()])


def stale_reasons() -> list[str]:
    """:data:`REASONS` keys that name no line of their module."""
    texts = {path.name: {line.strip() for line in path.read_text().splitlines()}
             for path in PACKAGE.glob("*.py")}
    return [f"{name}: {text}" for name, text in REASONS if text not in texts.get(name, ())]


# --------------------------------------------------------- product paths

def _readme_lines() -> list[list[str]]:
    """The ``cflab verify`` lines of the README's command-line block that
    have no ``[placeholder]``, as argv lists."""
    block = (ROOT / "README.md").read_text().split("## Command line")[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("cflab verify ") and "[" not in line]


def product() -> list[str]:
    """Run the product paths; the command lines that did not exit 0."""
    import cflab.cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    argvs = [["suite", "--seed", str(seed), "--format", fmt]
             for seed in (7, 101, 211) for fmt in ("json", "csv", "table")]
    argvs += [list(argv) for argv in workloads.verify_mix_commands(101)]
    argvs += _readme_lines()
    failed = []
    for argv in argvs:
        code, _, err = workloads.run_cli_op(cflab, argv)
        if code != 0:
            failed.append(f"exit {code}: cflab {shlex.join(argv)}: {err.strip()}")
    for op in workloads.pointwise_ops(101)[:6]:
        workloads.run_pointwise_op(cflab, op)
    return failed


# ------------------------------------------------------- the pytest plugin

_TRACER = pytest.StashKey[Tracer]()


def pytest_addoption(parser):
    parser.addoption("--changed", nargs="+", default=[], metavar="FILE",
                     help="list only the never-run statements of these files")


def pytest_load_initial_conftests(early_config, parser, args):
    early_config.stash[_TRACER] = Tracer()  # before the conftest imports cflab
    early_config.stash[_TRACER].start()


def pytest_sessionfinish(session):
    session.config.stash[_TRACER].stop()


def pytest_terminal_summary(terminalreporter, config):
    changed = {Path(name).name for name in config.getoption("changed")}
    terminalreporter.section("lines of src/cflab that these tests never run")
    for line in report(config.stash[_TRACER].hits, changed):
        terminalreporter.write_line(line)


def main(argv: list[str]) -> int:
    changed = []
    if "--changed" in argv:
        at = argv.index("--changed")
        argv, changed = argv[:at], [Path(name).name for name in argv[at + 1:]]
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["--tier1"]:
        os.chdir(ROOT)
        return pytest.main(["-p", "line_coverage", "-q", "--continue-on-collection-errors",
                            *argv[1:], *(["--changed", *changed] if changed else [])])
    tracer = Tracer()
    tracer.start()
    try:
        failed = product()
    finally:
        tracer.stop()
    print("\n".join(report(tracer.hits, set(changed)) + failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
