"""The e2e benchmark's ``--trace`` wraps program callables by name
(``IN_PROCESS_SITES`` in ``benchmarks/e2e/e2ebench/tracing.py``).  A
renamed or deleted name would otherwise surface only when a traced
benchmark run fails to install its wrappers, so this reads the list
from the file, without importing the benchmark, and resolves every
site against the program."""

import ast
import importlib
from pathlib import Path

TRACING = (Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
           / "e2ebench" / "tracing.py")


def _sites() -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name)
                and target.id == "IN_PROCESS_SITES"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no IN_PROCESS_SITES in {TRACING}")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_tracer_site_resolves():
    sites = _sites()
    assert sites
    unresolved = []
    for module, path, _span in sites:
        try:
            target = _resolve(module, path)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{module}.{path}: {exc}")
            continue
        if not callable(target):
            unresolved.append(f"{module}.{path}: not callable")
    assert not unresolved, unresolved
