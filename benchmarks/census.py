"""Which functions of ``src/repro`` tier-1 never enters.

    python3 benchmarks/census.py

Runs tier-1 (``python -m pytest tests``) once, in one child, with this
module loaded as a pytest plugin (``-p benchmarks.census``).  The plugin
installs a ``sys.setprofile`` hook before the conftests load and again at every
test's setup and teardown, and records every code object the run enters.
An AST walk over ``src/repro`` then lists every ``def`` whose code object
was never entered, matched by file, first line and name.  The report is
sorted by file and line, gives each function's line count and ends with
the totals inside and outside ``experiments/``, which the registry bench
runs instead.

``--hypothesis-seed=0`` and ``-p no:cacheprovider`` are pinned, so two
runs print the same list.  The child runs in its own session, is killed
as a group on timeout, and none outlives the command (``os.waitpid(-1)``
is asserted empty at the end).  With the hook installed tier-1 takes
about two and a half times its plain wall time.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Seconds allowed for the hooked tier-1 run.
RUN_TIMEOUT = 3600.0

Key = Tuple[str, int, str]  # (path relative to src/, first line, name)


@dataclass(frozen=True)
class Function:
    """One ``def`` in the source tree."""

    path: str  # relative to the source root, e.g. "repro/sim/engine.py"
    first: int  # first line: the first decorator's, or the ``def`` line
    start: int  # the ``def`` line
    last: int
    qualname: str

    @property
    def key(self) -> Key:
        return (self.path, self.first, self.qualname.rsplit(".", 1)[-1])

    @property
    def lines(self) -> int:
        """Lines from ``def`` to the end of the body (decorators left out)."""
        return self.last - self.start + 1

    @property
    def in_experiments(self) -> bool:
        return self.path.startswith("repro/experiments/")


def functions_in(source: str, path: str) -> List[Function]:
    """Every ``def`` in ``source``, nested ones included, in line order.

    ``first`` is the line CPython gives the function's code object as
    ``co_firstlineno``: the first decorator's line if it has any.
    """
    found: List[Function] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(Function(path, first, child.lineno, child.end_lineno,
                                      qualname))
                walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return sorted(found, key=lambda f: f.first)


def never_entered(functions: Iterable[Function], entered: Set[Key]) -> List[Function]:
    """The functions whose key is not in ``entered``, by file and line."""
    return sorted((f for f in functions if f.key not in entered),
                  key=lambda f: (f.path, f.first))


def source_functions(package: pathlib.Path = PACKAGE) -> Iterator[Function]:
    for file in sorted(package.rglob("*.py")):
        path = file.relative_to(package.parent).as_posix()
        yield from functions_in(file.read_text(), path)


def report(missed: List[Function], total: int) -> str:
    lines = [f"{f.path}:{f.first}  {f.qualname}  ({f.lines} lines)" for f in missed]
    outside = [f for f in missed if not f.in_experiments]
    inside = [f for f in missed if f.in_experiments]
    lines.append(f"tier-1 enters {total - len(missed)} of {total} functions")
    lines.append(f"never entered outside experiments/: {len(outside)} functions, "
                 f"{sum(f.lines for f in outside)} lines")
    lines.append(f"never entered in experiments/: {len(inside)} functions, "
                 f"{sum(f.lines for f in inside)} lines")
    return "\n".join(lines)


# -- the pytest plugin (loaded in the child with ``-p benchmarks.census``) -----

_entered: Dict[int, object] = {}  # id(code) -> code, kept alive so ids stay unique


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _entered[id(code)] = code


def _install() -> None:
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def pytest_addoption(parser):
    parser.addoption("--census-out", default=None,
                     help="write the (file, line, name) of every entered "
                          "src/ function to this JSON file")


def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftests import repro, so import-time calls are seen too
    if early_config.known_args_namespace.census_out:
        _install()


def pytest_runtest_setup(item):
    if item.config.getoption("census_out"):
        _install()


def pytest_runtest_teardown(item):
    if item.config.getoption("census_out"):
        _install()


def pytest_unconfigure(config):
    out = config.getoption("census_out")
    if not out:
        return
    sys.setprofile(None)
    threading.setprofile(None)
    src = str(SRC) + os.sep
    keys = sorted({
        (code.co_filename[len(src):].replace(os.sep, "/"), code.co_firstlineno,
         code.co_name)
        for code in _entered.values() if code.co_filename.startswith(src)
    })
    pathlib.Path(out).write_text(json.dumps(keys))


# -- the command --------------------------------------------------------------


def _run_tier1(out: pathlib.Path) -> int:
    """Tier-1 in one blocking child in its own session; its exit status."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", "-p", "benchmarks.census",
               "--census-out", str(out), "tests"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except BaseException:  # timeout or interrupt: take the whole group down
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def _assert_no_children() -> None:
    """Fail loudly if any child of this process is still around."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise SystemExit(f"process hygiene: child {pid or '(running)'} was left behind")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        out = pathlib.Path(scratch) / "entered.json"
        try:
            status = _run_tier1(out)
        finally:
            _assert_no_children()
        entered = {tuple(key) for key in json.loads(out.read_text())}
    functions = list(source_functions())
    print(report(never_entered(functions, entered), len(functions)))
    if status != 0:
        print(f"tier-1 exited with {status}: the census covers a failing run")
    return status


if __name__ == "__main__":
    sys.exit(main())
