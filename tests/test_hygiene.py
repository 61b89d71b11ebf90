"""Source hygiene: no unused imports in ``src/`` or ``tests/``, and no
runtime dependency in ``src/`` beyond numpy.

An AST scan in place of pyflakes' F401 check.  An import is used when its
bound name occurs as a name anywhere in the module or is listed in
``__all__``; an import whose line carries ``# noqa: F401`` is exempt.
A second scan lists the absolute imports of modules outside the standard
library, numpy and bellopt: pyproject declares numpy as the only runtime
dependency.  A third scan finds loops nested four deep, counting ``for``
statements and comprehension generators along one chain: per-cell and
per-Fock-index formulas in ``src/`` are index arrays or contractions.  A
fourth scan finds calls that build Q vectors outside ``space``, whose
sign-character table every other module reads.  A fifth finds
``check_distribution`` calls given a numeric literal as ``tol`` outside
``space``, which holds the one behavior tolerance.  A sixth finds calls that
seed a generator or draw multinomial counts outside ``simulate``, whose
chunked engine is the one sampler and owns the stream contract.  A seventh
finds ``BEHAVIOR_TOL`` and ``clip`` named outside ``space``, whose
``block_distributions`` is the one statement of what an accepted behavior
means.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import in ``source`` that the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, bound in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported.append((alias.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_scan_flags_unused_imports():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import sys\n"
        "from json import dumps, loads\n"
        "from math import pi  # noqa: F401\n"
        "from re import (\n"
        "    compile,\n"
        "    escape,\n"
        ")\n"
        "from numpy import array\n"
        "__all__ = ['array']\n"
        "print(sys.argv, loads, escape)\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (4, "dumps"), (7, "compile")]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files
             for line, name in unused_imports(path.read_text())]
    assert found == []


#: top-level modules a ``src/`` module may import
RUNTIME_MODULES = frozenset(sys.stdlib_module_names) | {"numpy", "bellopt"}


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every absolute import in ``source`` whose top-level
    module is not in ``RUNTIME_MODULES``; relative imports stay in the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in RUNTIME_MODULES]
    return found


def test_scan_flags_foreign_imports():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from numpy.linalg import eigh\n"
        "from bellopt.space import DIM\n"
        "from . import space\n"
        "from .sampling import Allocation\n"
        "def f():\n"
        "    import pandas, numba as nb\n"
        "    from scipy import special\n"
    )
    assert foreign_imports(source) == [(4, "scipy.linalg"), (10, "pandas"), (10, "numba"),
                                       (11, "scipy")]


def test_src_imports_only_the_standard_library_and_numpy():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {module}"
             for path in files
             for line, module in foreign_imports(path.read_text())]
    assert found == []


#: loops nested this deep over indices are written as index arrays or contractions
LOOP_DEPTH = 4


def deep_loops(source: str) -> list[int]:
    """Line of each ``for`` statement or comprehension that brings one chain
    of nested loops to ``LOOP_DEPTH``; each comprehension generator counts as
    one loop."""
    found = []

    def visit(node, depth):
        inner = depth
        if isinstance(node, (ast.For, ast.AsyncFor)):
            inner += 1
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            inner += len(node.generators)
        if depth < LOOP_DEPTH <= inner:
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(source), 0)
    return found


def test_scan_flags_loops_nested_four_deep():
    source = (
        "for a in r:\n"
        "    for b in r:\n"
        "        for x in r:\n"
        "            print([y for y in r])\n"
        "            for y in r:\n"
        "                for z in r:\n"
        "                    pass\n"
        "cells = [(a, b, x, y) for a in r for b in r for x in r for y in r if a]\n"
        "group = {(s, g, h) for s in r for g in r for h in r}\n"
        "for a in r:\n"
        "    table = {g: [h for h in r] for g in r}\n"
        "    for b in r:\n"
        "        def f():\n"
        "            return sum(x * y for x in r for y in r)\n"
        "for a in r:\n"
        "    pass\n"
        "for b in r:\n"
        "    for x in r:\n"
        "        pass\n"
    )
    assert deep_loops(source) == [4, 5, 8, 14]


def test_src_has_no_loops_nested_four_deep():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in files
             for line in deep_loops(path.read_text())]
    assert found == []


#: the calls that build Q vectors from sign tuples
Q_BUILDERS = frozenset({"q_basis", "subspace_signs"})


def q_builder_calls(source: str, exempt: frozenset = frozenset()) -> list[int]:
    """Lines with a call to a ``Q_BUILDERS`` function, by bare or attribute
    name, outside the functions named in ``exempt``."""
    found = set()

    def visit(node, inside_exempt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in exempt:
            inside_exempt = True
        if isinstance(node, ast.Call) and not inside_exempt:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in Q_BUILDERS:
                found.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside_exempt)

    visit(ast.parse(source), False)
    return sorted(found)


def test_scan_flags_q_vectors_built_outside_space():
    source = (
        "from .space import q_basis, subspace_signs\n"
        "from . import space\n"
        "B = np.stack([q_basis(*s) for s in subspace_signs(Subspace.SI)])\n"
        "q = space.q_basis(1, 1, 1, 1)\n"
        "builders = (q_basis, space.subspace_signs)\n"
        "def spans_subspace(vecs, signs):\n"
        "    return np.stack([q_basis(*s) for s in signs])\n"
        "def helper():\n"
        "    return [subspace_signs(b) for b in BLOCKS]\n"
    )
    assert q_builder_calls(source) == [3, 4, 7, 9]
    assert q_builder_calls(source, frozenset({"spans_subspace"})) == [3, 4, 9]


def test_only_space_builds_q_vectors():
    # relabel.spans_subspace builds its own span on purpose: it is the oracle
    # that verify_invariance is tested against
    files = [path for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "space.py"]
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in files
             for line in q_builder_calls(
                 path.read_text(),
                 frozenset({"spans_subspace"}) if path.name == "relabel.py" else frozenset())]
    assert found == []


def _numeric_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def literal_tolerances(source: str) -> list[int]:
    """Lines of ``check_distribution`` calls, by bare or attribute name, whose
    ``tol`` (keyword or second positional argument) is a numeric literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        tols = [kw.value for kw in node.keywords if kw.arg == "tol"] + node.args[1:2]
        if name == "check_distribution" and any(map(_numeric_literal, tols)):
            found.append(node.lineno)
    return sorted(found)


def test_scan_flags_literal_behavior_tolerances():
    source = (
        "from .space import BEHAVIOR_TOL, check_distribution\n"
        "from . import space\n"
        "a = check_distribution(p, tol=1e-9)\n"
        "b = space.check_distribution(load(path), tol=1e-9)\n"
        "c = check_distribution(p, 1e-12)\n"
        "d = check_distribution(p, tol=BEHAVIOR_TOL)\n"
        "e = space.check_distribution(p, tol=space.BEHAVIOR_TOL)\n"
        "f = check_distribution(p)\n"
        "g = is_distribution(p, tol=1e-9)\n"
        "h = check_distribution(p, tol=-0)\n"
    )
    assert literal_tolerances(source) == [3, 4, 5, 10]


def test_only_space_spells_out_a_behavior_tolerance():
    files = [path for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "space.py"]
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in files
             for line in literal_tolerances(path.read_text())]
    assert found == []


#: the names that state what an accepted behavior means: its tolerance and
#: the clip of its tolerance-level negatives
POLICY_NAMES = frozenset({"BEHAVIOR_TOL", "clip"})


def policy_names(source: str) -> list[int]:
    """Lines that name a ``POLICY_NAMES`` entry: as a bare name, an
    attribute or an imported name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
        if POLICY_NAMES.intersection(names):
            found.add(node.lineno)
    return sorted(found)


def test_scan_flags_behavior_policy_names():
    source = (
        "from .space import BEHAVIOR_TOL, DIM\n"
        "from . import space\n"
        "a = check_distribution(p, tol=space.BEHAVIOR_TOL)\n"
        "b = np.clip(arr, 0.0, None)\n"
        "c = block_distributions(p)\n"
        "d = arr.clip(min=0.0)\n"
        "e = check_distribution(p)\n"
        "def f(tol=BEHAVIOR_TOL):\n"
        "    return 'BEHAVIOR_TOL'  # a string or comment names nothing\n"
        "from numpy import clip as nonneg\n"
    )
    assert policy_names(source) == [1, 3, 4, 6, 8, 10]


def test_only_space_states_the_behavior_policy():
    # the covariance and the sampler read space.block_distributions; a second
    # clip or tolerance would let their models drift apart again
    files = [path for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "space.py"]
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in files
             for line in policy_names(path.read_text())]
    assert found == []


#: the calls that open a random stream or draw trial counts
SAMPLER_CALLS = frozenset({"default_rng", "multinomial"})


def sampler_calls(source: str) -> list[int]:
    """Lines with a call to a ``SAMPLER_CALLS`` function, by bare or attribute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SAMPLER_CALLS:
                found.add(node.lineno)
    return sorted(found)


def test_scan_flags_sampler_calls():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "rng = np.random.default_rng([seed, c])\n"
        "counts = rng.multinomial(n, p)\n"
        "gen = default_rng(0)\n"
        "draw = rng.multinomial\n"
        "x = np.random.multinomial(10, w, size=k)\n"
        "y = rng.integers(5)\n"
    )
    assert sampler_calls(source) == [3, 4, 5, 7]


def test_only_simulate_samples():
    # a second sampler would draw outside the chunk/stream contract
    files = [path for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "simulate.py"]
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in files
             for line in sampler_calls(path.read_text())]
    assert found == []
