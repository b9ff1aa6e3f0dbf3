"""The README's library example runs as written, and every name it puts in backticks exists."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np

import retrosmooth
from retrosmooth.linalg import PSD_CLAMP

README = Path(__file__).resolve().parent.parent / "README.md"
# the one library outside the package and the standard library that a README name may refer to
NUMPY_NAMES = ("numpy", "np")


def test_library_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README.name}: Library quick start", "exec"), namespace)
    rho_s = namespace["rho_s"]
    assert abs(np.trace(rho_s).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho_s).min() >= -PSD_CLAMP


def _code_names(text: str) -> list[str]:
    """Backticked Python names outside code blocks, dotted or bare, each without its call arguments.

    One-letter names are the prose's math variables (`t + 1`, pair `i`), not code.
    """
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    spans = re.findall(r"`([^`\n]+)`", prose)
    names = [m.group(1) for s in spans if (m := re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^()]*\))?", s))]
    return [n for n in names if len(n) > 1]


def _known_names():
    """The package's modules, the classes in them, and every name a bare README mention may mean.

    A bare name is an attribute of a module or of a class in one (fields included), a parameter
    of one of their functions, or a string the package reads (a scenario key or value, a command,
    a prior kind).
    """
    modules = {
        m.name: importlib.import_module(f"retrosmooth.{m.name}") for m in pkgutil.iter_modules(retrosmooth.__path__)
    }
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__.startswith("retrosmooth")
    }
    owners = [*modules.values(), *classes.values()]
    bare = set(modules).union(*map(_attributes, owners))
    for owner in owners:
        for obj in vars(owner).values():
            if inspect.isfunction(obj) and obj.__module__.startswith("retrosmooth"):
                bare |= set(inspect.signature(obj).parameters)
    for path in Path(retrosmooth.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                bare |= set(node.value.split("."))
    return modules, classes, bare


def _attributes(obj) -> set[str]:
    return set(dir(obj)).union(*(getattr(k, "__annotations__", {}) for k in getattr(obj, "__mro__", ())))


def _resolves(name: str, modules, classes, bare) -> bool:
    head, *rest = name.removeprefix("retrosmooth.").split(".")
    if name == "retrosmooth" or head in NUMPY_NAMES:
        return True
    if not rest:
        return head in bare
    if head in sys.stdlib_module_names:
        obj = importlib.import_module(head)
    else:
        obj = modules.get(head) or classes.get(head)
    for part in rest:
        if obj is None or part not in _attributes(obj):
            return False
        obj = getattr(obj, part, None)  # a field without a default has no class attribute
    return True


def test_every_backticked_name_resolves():
    names = _code_names(README.read_text())
    assert len(names) > 150
    known = _known_names()
    assert [n for n in names if not _resolves(n, *known)] == []


def test_a_retired_name_does_not_resolve():
    known = _known_names()
    for name in ("theorem1_batch", "entropy.theorem1_batch", "retrodiction._sandwich_marginal", "json.nothing"):
        assert not _resolves(name, *known), name
    assert _code_names("`theorem1_batch(gammas)` and `entropy.lambda_map`, not `t + 1` nor `i`") == [
        "theorem1_batch",
        "entropy.lambda_map",
    ]
