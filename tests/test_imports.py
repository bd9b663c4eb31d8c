"""Import hygiene: every module imports alone, and ``obs`` stays a leaf.

``repro.obs`` is the instrumentation layer every domain package reports
through (``library.cache``, the flows, the router, serve).  If an
``obs`` module imported a domain package back, importing that domain
package first would walk into a partially initialized module — the
failure only shows when the cyclic module happens to be the *entry
point*, so the test imports each module alone in a clean interpreter
state.
"""

import ast
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: What ``repro.obs`` may import from its own package.
OBS_ALLOWED = {"obs", "errors"}

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


def test_obs_imports_no_domain_package():
    obs_dir = os.path.join(PACKAGE, "obs")
    offenders = {}
    for name in sorted(os.listdir(obs_dir)):
        if name.endswith(".py"):
            path = os.path.join(obs_dir, name)
            bad = _repro_imports(path) - OBS_ALLOWED
            if bad:
                offenders[name] = sorted(bad)
    assert not offenders, f"obs modules import domain packages: {offenders}"
