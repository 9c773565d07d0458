"""The package layers: ``core`` names no subsystem, and one composition
root, ``repro.core.cluster``, builds and attaches every part.

The checks read ``src/repro`` with :mod:`ast` and import nothing, except
one child interpreter that imports each MSU-side subsystem module first.
Imports under ``if TYPE_CHECKING:`` are left out: they never run.
"""

import ast
import os
import pathlib
import signal
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

#: Lowest first.  A module may import its own package, and any package
#: in a lower layer.  Subsystems may import each other, acyclically.
SUBSYSTEMS = ("cache", "edge", "failover", "live", "multicast", "scaleout")
LAYERS = (
    ("repro", "units", "errors"),
    ("sim",),
    ("hardware",),
    ("storage",),
    ("net",),
    ("media", "metrics"),
    ("recovery",),
    ("core",),
    SUBSYSTEMS,
    ("core.cluster",),
    ("clients",),
    ("verify",),
    ("experiments",),
    ("tools",),
)
RANK = {package: rank for rank, layer in enumerate(LAYERS) for package in layer}
#: Packages whose functions may import late (the CLI and the
#: experiments load only what the chosen verb needs).
LATE_IMPORTS_ALLOWED = ("experiments", "tools")


def _modules():
    """``{dotted name: (path, is package)}`` for every module of repro."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        out[".".join(parts)] = (path, is_package)
    return out


MODULES = _modules()


def package_of(module):
    """The layer key of a module: its top-level package under repro,
    with the composition root ``core.cluster`` as its own."""
    parts = module.split(".")
    if parts[1:3] == ["core", "cluster"]:
        return "core.cluster"
    return parts[1] if len(parts) > 1 else "repro"


def _is_type_checking(node):
    test = node.test
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def _module_level(body):
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and not _is_type_checking(node):
            yield from _module_level(node.body)
            yield from _module_level(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_level(block)
            for handler in node.handlers:
                yield from _module_level(handler.body)


def _targets(node, module, is_package):
    """The repro modules one import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            anchor = module.split(".")[: None if is_package else -1]
            anchor = anchor[: len(anchor) - node.level + 1]
            base = ".".join(anchor + ([base] if base else []))
        names = []
        for alias in node.names:
            full = f"{base}.{alias.name}"
            names.append(full if full in MODULES else base)
    return [name for name in names if name.split(".")[0] == "repro"]


def _ancestors(module):
    parts = module.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts))}


def import_graph():
    """Module-level imports: ``{module: {(target, line)}}``.

    Loading ``a.b.c`` first runs ``a/__init__`` and ``a/b/__init__``, so
    an import also depends on the target's packages, except those the
    importer sits in (they are loading already when it runs).
    """
    graph = {}
    for module, (path, is_package) in MODULES.items():
        edges = graph.setdefault(module, set())
        tree = ast.parse(path.read_text(), str(path))
        own = _ancestors(module)
        for node in _module_level(tree.body):
            for target in _targets(node, module, is_package):
                for dependency in ({target} | _ancestors(target)) - own - {module}:
                    edges.add((dependency, node.lineno))
    return graph


def _find_cycle(graph):
    """One cycle of ``{node: {successors}}`` as a path, or None."""
    state = {}
    stack = []

    def visit(node):
        state[node] = "open"
        stack.append(node)
        for succ in sorted(graph.get(node, ())):
            if state.get(succ) == "open":
                return stack[stack.index(succ):] + [succ]
            if succ not in state:
                found = visit(succ)
                if found:
                    return found
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None


def test_every_package_has_a_layer():
    assert {package_of(module) for module in MODULES} == set(RANK)


def test_module_level_imports_only_go_down_the_layers():
    wrong = set()
    subsystem_edges = {}
    for module, edges in import_graph().items():
        source = package_of(module)
        for target, line in edges:
            dest = package_of(target)
            if dest == source or RANK[dest] < RANK[source]:
                continue
            if source in SUBSYSTEMS and dest in SUBSYSTEMS:
                subsystem_edges.setdefault(source, set()).add(dest)
                continue
            wrong.add(f"{module}:{line} imports {dest} (layer {source})")
    assert not wrong, "\n".join(sorted(wrong))
    assert _find_cycle(subsystem_edges) is None, subsystem_edges


def test_the_module_graph_has_no_cycle():
    graph = {
        module: {target for target, _line in edges}
        for module, edges in import_graph().items()
    }
    assert _find_cycle(graph) is None


def test_no_function_imports_repro_late():
    late = []
    for module, (path, is_package) in MODULES.items():
        if package_of(module) in LATE_IMPORTS_ALLOWED:
            continue
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and _targets(
                    node, module, is_package
                ):
                    late.append(f"{module}:{node.lineno}")
    assert not late, late


def test_the_coordinator_names_no_lane_or_edge_loop():
    """``_play`` and ``_patch_drained`` walk ``lanes`` and the edge
    control loop lives in the placement part, so the core's Coordinator
    names neither lane's handle nor the edge loop."""
    text = (SRC / "repro" / "core" / "coordinator.py").read_text()
    for name in ("live_manager", "channel_manager", "_edge_loop"):
        assert name not in text, name


def test_the_coordinator_leaves_the_edge_leg_to_the_unicast_lane():
    """Unicast is the last lane and the edge part supplies its edge leg,
    so the Coordinator only declares the placement handle and never
    plans, grants, schedules or starts an edge serve itself."""
    text = (SRC / "repro" / "core" / "coordinator.py").read_text()
    assert "self.placement." not in text
    for name in ("schedule_play", "plan_prefix", "place_edge", "begin_serve"):
        assert name not in text, name


#: Each module is imported first, with every ``repro`` module purged
#: from ``sys.modules`` before the next.
FIRST_IMPORTS = ("repro.cache.msu_side", "repro.live.msu_side",
                 "repro.multicast.msu_side")
CHILD = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    importlib.import_module(name)
    print("ok", name)
"""


def test_msu_side_modules_import_first():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, *FIRST_IMPORTS], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        raise AssertionError("a child process was left behind")
    assert proc.returncode == 0, output
    assert output.split() == [
        word for name in FIRST_IMPORTS for word in ("ok", name)
    ]
