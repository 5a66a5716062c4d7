import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def test_console_scripts_resolve():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_every_traced_probe_resolves_a_binding(monkeypatch):
    # the traced benchmark run reports a probe whose bindings are all gone
    # as missing and blanks its metrics; catch a refactor that drops one
    tracer = _load_tracer(monkeypatch)
    missing = [name for name, (bindings, _) in tracer.PROBES.items()
               if not any(tracer._resolve(b) for b in bindings)]
    assert not missing


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_run_sees_every_context_build(monkeypatch):
    # the tracer binds the context builders by module; a builder moved to a
    # module it does not bind would leave these counts short, which the
    # binding test above cannot see
    import numpy as np

    from blocksc import deq, pipeline, unroll
    from blocksc.anderson import AndersonConfig
    from blocksc.cubes import HyperCube
    from blocksc.denoiser import ModelParams, ScalarParams, init_denoiser
    from blocksc.dictionary import Dictionary, normalize_atoms

    rng = np.random.default_rng(0)
    D = Dictionary(normalize_atoms(rng.normal(size=(4, 8))))
    params = ModelParams(init_denoiser(4, hidden=3, seed=0),
                         ScalarParams.from_values(0.8, 0.05))
    pairs = [(rng.normal(size=(4, 16)), rng.normal(size=(4, 16)))
             for _ in range(4)]
    anderson = AndersonConfig(m=3, max_iters=4, tol=1e-6)
    cube = HyperCube(rng.normal(size=(4, 8, 8)))  # four 4x4 blocks
    tracer = _load_tracer(monkeypatch)
    with tracer.tracing() as trace:
        deq.deq_train(pairs, D, params, deq.DeqTrainConfig(
            variant="fast", anderson=anderson, support_size=2, epochs=1,
            batch_size=2, val_fraction=0.5))
        unroll.du_train(pairs, D, params, unroll.DuTrainConfig(
            unroll=unroll.UnrollConfig(K=2, variant="fast"), support_size=2,
            epochs=1, batch_size=2, val_fraction=0.5))
        pipeline.denoise_cube(pipeline.ModelBundle(
            D, params, n=4, anderson=anderson, support_size=2), cube)
    assert not tracer.still_wrapped()
    calls = Counter(span.name for span in trace.spans)
    # 2 training and 2 validation blocks per engine, and 4 cube blocks
    assert calls["solver.select_support"] == 4 + 4 + 4
    assert calls["solver.make_context"] == 4 + 4 + 4
    assert calls["pipeline.denoise_block"] == 2 + 2 + 4


_IMPORT_GRAPH = """
import pkgutil, sys
import blocksc
for mod in pkgutil.iter_modules(blocksc.__path__):
    __import__(f"blocksc.{mod.name}")
print(sorted(name for name, mod in sys.modules.items()
             if name.count(".") == 1 and name.startswith("scipy.")
             and not name.split(".")[1].startswith("_")
             and hasattr(mod, "__path__")))
"""


def test_blocksc_imports_only_scipy_linalg():
    # every other scipy subpackage costs each process import time that no
    # solve or training step uses; import one where it is called
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['scipy.linalg']"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # no linter runs in tier-1; an import left behind by a refactor lands here
    files = sorted([*ROOT.glob("src/blocksc/*.py"), *ROOT.glob("tests/*.py")])
    assert files
    unused = [hit for path in files for hit in _unused_imports(path)]
    assert not unused


def _unread_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        where = f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        hits += [f"{where}({arg.arg})" for arg in params
                 if arg.arg not in read | {"self", "cls"}]
    return hits


def test_no_unread_parameters():
    # a parameter the body never reads is a dead argument every caller
    # still has to supply; a refactor that stops reading one lands here
    files = sorted(ROOT.glob("src/blocksc/*.py"))
    assert files
    unread = [hit for path in files for hit in _unread_parameters(path)]
    assert not unread


# Defaulted parameters no call sets, each kept for a reason.
DEFAULT_ALLOWLIST = {
    "contraction_estimate(scale)": "ROADMAP direction 1 logs the estimate "
                                   "per epoch and sets the code scale",
}


def _defaulted_parameters(path):
    """(callee name, parameter, positional index or None, where) for each
    defaulted parameter; a class's ``__init__`` is called by the class
    name, and a method's index does not count ``self``."""
    out = []

    def visit(body, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            pos = [*args.posonlyargs, *args.args][1 if cls else 0:]
            name = cls if node.name == "__init__" else node.name
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            first = len(pos) - len(args.defaults)
            out.extend((name, arg.arg, i, where)
                       for i, arg in enumerate(pos[first:], start=first))
            out.extend((name, arg.arg, None, where) for arg, default
                       in zip(args.kwonlyargs, args.kw_defaults) if default)

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return out


def _passed_arguments():
    """Callee name -> the keywords and positional indices its calls pass."""
    passed = {}
    for path in (p for d in ("src", "perfbench", "tools", "tests")
                 for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                got = passed.setdefault(name, set())
                got.update(kw.arg for kw in node.keywords if kw.arg)
                got.update(range(len(node.args)))
    return passed


def _defaulted_fields(paths):
    """(class, the class and its subclasses, field, positional index,
    where) for each defaulted field of a dataclass; a subclass takes the
    base's fields first, and a field it declares again keeps its place."""
    classes = {}  # name -> (base names, [(field, defaulted, where)])
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                classes[node.name] = (
                    [ast.unparse(b).rpartition(".")[2] for b in node.bases],
                    [(f.target.id, f.value is not None,
                      f"{path.relative_to(ROOT)}:{f.lineno}")
                     for f in node.body if isinstance(f, ast.AnnAssign)])

    def order(name):
        bases, own = classes.get(name, ((), ()))
        names = [field for base in bases for field in order(base)]
        return names + [f for f, _, _ in own if f not in names]

    def subclasses(name):
        return {name}.union(*(subclasses(sub) for sub, (bases, _)
                              in classes.items() if name in bases))

    return [(name, subclasses(name), field, order(name).index(field), where)
            for name, (_, own) in classes.items()
            for field, defaulted, where in own if defaulted]


def test_no_unused_defaults():
    # a default no caller overrides is a constant dressed as a parameter;
    # calls are matched by name, so a shared name can only hide a hit.  A
    # dataclass field counts as set by a keyword or position on its class
    # or a subclass, or by a ``replace`` keyword on any object
    passed = _passed_arguments()
    paths = sorted(ROOT.glob("src/blocksc/*.py"))
    unused = [f"{where}: {name}({arg})"
              for path in paths
              for name, arg, index, where in _defaulted_parameters(path)
              if not {arg, index} & passed.get(name, set())
              and f"{name}({arg})" not in DEFAULT_ALLOWLIST]
    replaced = {a for a in passed.get("replace", ()) if isinstance(a, str)}
    unused += [f"{where}: {name}.{field}"
               for name, users, field, index, where in _defaulted_fields(paths)
               if not {field, index} & replaced.union(
                   *(passed.get(user, ()) for user in users))]
    assert not unused


# Public names that stay without a caller outside tests/, each for a reason.
SURFACE_ALLOWLIST = {
    "contraction_estimate": "ROADMAP direction 1 logs it per training epoch",
    "estimated_spectral_norms": "checks spectral_normalize until ROADMAP "
                                "direction 1 replaces it",
    "ssim": "one of the paper's three reported quality metrics",
    "sam": "one of the paper's three reported quality metrics",
}


def _referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def _unreferenced_definitions(files, candidate):
    """'path: name' of each top-level function or class in ``files`` that
    ``candidate(path, node)`` picks and no other top-level statement in
    ``files`` refers to."""
    refs = {}  # (path, statement index) -> names used by that statement
    defs = []  # (path, statement index, name) of the picked definitions
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for index, node in enumerate(tree.body):
            refs[path, index] = _referenced_names(node)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and candidate(path, node)):
                defs.append((path, index, node.name))
    return [f"{path.relative_to(ROOT)}: {name}"
            for path, index, name in defs
            if not any(name in names for key, names in refs.items()
                       if key != (path, index))]


def test_no_test_only_public_surface():
    # a public function or class that only tests call is surface to delete;
    # a name counts as used when any other top-level statement in src/,
    # perfbench/ or tools/ refers to it
    files = sorted(p for d in ("src", "perfbench", "tools")
                   for p in (ROOT / d).rglob("*.py"))
    assert not _unreferenced_definitions(
        files, lambda path, node: path.parent == ROOT / "src" / "blocksc"
        and not node.name.startswith("_")
        and node.name not in SURFACE_ALLOWLIST)


def test_only_denoiser_names_float32_params():
    # which network pass runs in float32 is decided in one module, whose
    # ``shared_network`` makes the float32 copy of a weight state
    src = ROOT / "src" / "blocksc"
    naming = [path.name for path in sorted(src.glob("*.py"))
              if "float32_params" in _referenced_names(
                  ast.parse(path.read_text(encoding="utf-8")))]
    assert naming == ["denoiser.py"]


def test_no_dead_test_helpers():
    # a module-level helper in tests/ that no test file refers to is dead
    # code, still written against whatever API it once served; test
    # functions and classes are collected by name and fixtures by pytest
    def helper(path, node):
        return (not node.name.startswith(("test_", "Test"))
                and not any("fixture" in ast.unparse(d)
                            for d in node.decorator_list))

    files = sorted((ROOT / "tests").rglob("*.py"))
    assert files
    assert not _unreferenced_definitions(files, helper)
