"""``src/repro`` runs work in another process one way: through a
``concurrent.futures.ProcessPoolExecutor``.  No module starts a raw
``Process`` from ``multiprocessing`` or talks over its ``Pipe`` or its
``connection`` module; its ``get_context`` (to pick a pool's start
method) stays allowed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MP = "multiprocessing"
BANNED = ("Process", "Pipe", "connection")


def _is_connection(module):
    return module.split(".")[:2] == [MP, "connection"]


def raw_process_uses(source):
    """``(line, text)`` for every reference to a banned name of
    ``multiprocessing`` in ``source``, under any import alias."""
    tree = ast.parse(source)
    aliases = set()  # local names bound to the multiprocessing module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_connection(alias.name):
                    found.append((node.lineno, f"import {alias.name}"))
                elif alias.name == MP:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if _is_connection(node.module):
                found.append((node.lineno, f"from {node.module} import"))
            elif node.module == MP:
                found.extend(
                    (node.lineno, f"from {MP} import {a.name}")
                    for a in node.names if a.name in BANNED)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in BANNED
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("source", [
    f"import {MP}\n{MP}.Process(target=f)",
    "import multiprocessing as mp\nconn, child = mp.Pipe()",
    f"import {MP}.connection",
    f"from {MP}.connection import Connection",
    "from multiprocessing import Pipe",
    "from multiprocessing import get_context, Process as P",
    "from multiprocessing import connection",
    "def f():\n    return mp.Process\nimport multiprocessing as mp",
])
def test_detector_flags_raw_processes_and_pipes(source):
    assert raw_process_uses(source)


@pytest.mark.parametrize("source", [
    "from multiprocessing import get_context\nget_context('fork')",
    "import multiprocessing\nmultiprocessing.get_context('fork')",
    "from concurrent.futures import ProcessPoolExecutor",
    "class Process:\n    pass\nProcess()",
])
def test_detector_allows_the_pool_and_get_context(source):
    assert raw_process_uses(source) == []


def test_src_starts_no_raw_process():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = [f"{path.relative_to(SRC)}:{line}: {text}"
                 for path in modules
                 for line, text in raw_process_uses(path.read_text())]
    assert offenders == [], "\n".join(offenders)
