"""Import hygiene: every module imports alone, and the package layers
form the declared acyclic graph :data:`LAYERS`.

``repro.obs`` is the instrumentation layer every domain package reports
through (``library.cache``, the flows, the router, serve).  If an
``obs`` module imported a domain package back, importing that domain
package first would walk into a partially initialized module — the
failure only shows when the cyclic module happens to be the *entry
point*, so one test imports each module alone in a clean interpreter
state, and the others hold every package to the imports it declares.
"""

import ast
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: The declared layer graph: each ``repro`` subpackage or top-level
#: module, mapped to the others it may import.  The AST scan below
#: must find no import outside this graph, and the graph must stay
#: acyclic, so a new cross-package import is a deliberate edit here.
LAYERS = {
    "errors": set(),
    "obs": {"errors"},
    "network": {"errors"},
    "geometry": {"errors"},
    "exec": {"obs"},
    "metrics": {"network"},
    "synth": {"network"},
    "circuits": {"errors", "network"},
    "library": {"errors", "network", "obs"},
    "timing": {"errors", "library", "network"},
    "place": {"errors", "geometry", "library", "network"},
    "io": {"errors", "network", "obs", "place"},
    "route": {"errors", "io", "obs", "place"},
    "core": {"errors", "exec", "geometry", "library", "network", "obs",
             "place", "route", "synth", "timing"},
    "serve": {"circuits", "core", "errors", "exec", "io", "library",
              "network", "obs", "place"},
    "tools": set(),
    "cli": {"circuits", "core", "io", "library", "network", "obs", "place",
            "serve", "synth", "tools"},
}

#: What the root ``repro/__init__.py`` facade imports.
ROOT_ALLOWED = {"errors", "metrics"}

_IMPORT_EACH_ALONE = """
import importlib, sys, traceback
failed = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed.append(name + "\\n" + traceback.format_exc(limit=-3))
print("\\n".join(failed))
sys.exit(1 if failed else 0)
"""


def _module_name(path):
    rel = os.path.relpath(path, SRC)[:-len(".py")].split(os.sep)
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def _modules():
    names = []
    for dirpath, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                names.append(_module_name(os.path.join(dirpath, name)))
    return sorted(names)


def _repro_imports(path):
    """Top-level ``repro`` subpackages/modules one file imports."""
    package = _module_name(path).split(".")
    if not path.endswith("__init__.py"):
        package = package[:-1]
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                parts = base + (node.module.split(".") if node.module
                                else [])
                if len(parts) == 1:     # ``from .. import x``
                    targets.update(alias.name for alias in node.names)
                    continue
            else:
                parts = (node.module or "").split(".")
            if parts[0] == "repro" and len(parts) > 1:
                targets.add(parts[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    targets.add(parts[1])
    return targets


def test_every_module_imports_alone():
    modules = _modules()
    assert "repro.place" in modules
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH_ALONE] + modules,
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _layer_of(path):
    """The :data:`LAYERS` key of a source file (``None`` for the root)."""
    parts = _module_name(path).split(".")
    return parts[1] if len(parts) > 1 else None


def _undeclared_imports():
    """{file: sorted imports outside its layer's declared edges}."""
    offenders = {}
    for dirpath, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            layer = _layer_of(path)
            allowed = ROOT_ALLOWED if layer is None \
                else LAYERS.get(layer, set()) | {layer}
            bad = _repro_imports(path) - allowed
            if bad:
                offenders[os.path.relpath(path, SRC)] = sorted(bad)
    return offenders


def test_obs_imports_no_domain_package():
    assert LAYERS["obs"] <= {"errors"}
    offenders = {path: bad for path, bad in _undeclared_imports().items()
                 if path.startswith(os.path.join("repro", "obs"))}
    assert not offenders, f"obs modules import domain packages: {offenders}"


def test_imports_follow_declared_layers():
    offenders = _undeclared_imports()
    assert not offenders, \
        f"imports outside the declared LAYERS graph: {offenders}"


def test_declared_layers_cover_every_package():
    found = {_layer_of(os.path.join(dirpath, name))
             for dirpath, _, files in os.walk(PACKAGE)
             for name in files if name.endswith(".py")} - {None}
    assert found == set(LAYERS)
    assert all(deps <= set(LAYERS) for deps in LAYERS.values())


def test_declared_layers_are_acyclic():
    """Kahn's algorithm peels the graph completely, leaves first."""
    pending = {layer: set(deps) for layer, deps in LAYERS.items()}
    while pending:
        leaves = {layer for layer, deps in pending.items() if not deps}
        assert leaves, f"import cycle among {sorted(pending)}"
        pending = {layer: deps - leaves for layer, deps in pending.items()
                   if layer not in leaves}
