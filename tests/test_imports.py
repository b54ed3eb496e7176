"""The library imports nothing outside the standard library, numpy and
click: every absolute import in src/zdcubes/*.py names one of them or the
package itself.  Underscored names cross between library modules only from
the array primitives (_arrays) and the text codecs (_text), which import
nothing from the package but errors.  Only cube_engine builds face-group
elements.  The names the benchmark harness looks up in the library
exist.  A run of the commands never imports numpy.ma, and only affine input
or the package's affine names import the affine layer.  Every name in
zdcubes.__all__ resolves and dir(zdcubes) lists it, and @dataclass is
kept for the classes that need its __init__, __post_init__ or
cached_property support; the plain records are NamedTuples."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

from zdcubes import cli, kernels

ALLOWED = {"numpy", "click", "zdcubes"}
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "zdcubes"
SHARED = {"_arrays", "_text"}
# private names imported across modules anyway, with the per-layer metrics
# whose self time would shift if a public name, and so a traced span, took
# their place
CROSSING = {
    "_label_quotient": ("structure.maximal_trivial_H_factor.self_s",
                        "finite_system.quotient.self_s"),
    "_R_equivalence": ("proximal.maximal_ucpp_factor.self_s",),
    "_orbits": ("finite_system.is_minimal.self_s",),
}


def _imported(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def _package_imports(path: pathlib.Path):
    """(module, name) for each name a library file imports from the
    package, module "" for the package itself."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "zdcubes":
                    continue
                module = module.partition(".")[2]
            for alias in node.names:
                yield module, alias.name


def test_private_names_cross_modules_only_from_the_shared_ones():
    crossing = [f"{path.name}: {name} from {module or 'zdcubes'}"
                for path in sorted(SRC.glob("*.py"))
                for module, name in _package_imports(path)
                if name.startswith("_") and module not in SHARED
                and name not in CROSSING]
    assert crossing == []


def test_shared_modules_import_only_errors_from_the_package():
    for name in SHARED:
        modules = {module for module, _ in _package_imports(SRC / f"{name}.py")}
        assert modules <= {"errors"}, name


def test_library_imports_only_stdlib_numpy_and_click():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [f"{path.name}:{line}: {name}"
               for path in files
               for line, name in _imported(ast.parse(path.read_text()))
               if name.split(".")[0] not in ALLOWED
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_only_the_cube_engine_builds_face_group_elements():
    # other modules take their elements from face_group_generators
    builders = [path.name for path in sorted(SRC.glob("*.py"))
                if "FaceGroupElement(" in path.read_text()]
    assert builders == ["cube_engine.py"]


def test_names_the_benchmark_harness_looks_up_exist():
    # perfbench/tracing.py wraps these by name, and perfbench/worker.py
    # calls the cli functions with these arguments
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {m: importlib.import_module(f"zdcubes.{m}")
               for m in tracing.MODULES}
    missing = [key for key in tracing.METHODS
               if key[2] not in vars(getattr(modules[key[0]], key[1]))]
    assert missing == []
    inspect.signature(cli.cmd_verify).bind("x.fsys", threads=1)
    inspect.signature(cli.cmd_analyze).bind("x.fsys", "cubes", {"threads": 1})
    inspect.signature(cli.cmd_joining).bind(("a.pset", "b.pset"))
    assert callable(cli._json_default) and kernels.backend_name()


NO_MASKED_ARRAYS = """
import pathlib, sys
from zdcubes import cli
fixtures = pathlib.Path(sys.argv[1])
for path in sorted(fixtures.iterdir()):
    cli.cmd_verify(str(path))
z = str(fixtures / "z2z2z3_d3.fsys")
cli.cmd_cubes(z, basepoint=0)
cli.cmd_ucpp(z)
cli.cmd_rpp(z)
cli.cmd_structure(z)
print("numpy.ma" in sys.modules)
"""


def test_the_commands_never_import_masked_arrays():
    # numpy 2.4's plain np.unique asks numpy.ma whether its input is masked,
    # which imports numpy.ma (about 1.2 MB resident) on first use; a fresh
    # interpreter shows whether any command path reaches such a call
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, str(SRC.parent.parent / "fixtures")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.split() == ["False"]


NO_AFFINE_LAYER = """
import pathlib, sys
from zdcubes import cli
loaded = lambda: [m for m in ("zdcubes.affine", "fractions", "decimal")
                  if m in sys.modules]
print(loaded())
fixtures = pathlib.Path(sys.argv[1])
for path in sorted(fixtures.iterdir()):
    if path.suffix != ".affine":
        cli.cmd_verify(str(path))
z = str(fixtures / "z2z2z3_d3.fsys")
cli.cmd_cubes(z, basepoint=0)
cli.cmd_ucpp(z)
cli.cmd_rpp(z)
cli.cmd_structure(z)
cli.cmd_joining(tuple(str(fixtures / f"parityB{i}.pset") for i in (1, 2, 1)))
print(loaded())
report, code = cli.cmd_verify(str(fixtures / "rot6.affine"))
print(report["status"], code, "zdcubes.affine" in sys.modules)
from zdcubes import discretize, load_affine
print(discretize(load_affine(str(fixtures / "rot6.affine")), 6).n_points)
"""


def test_only_affine_input_imports_the_affine_layer():
    # the affine layer (with fractions and decimal) is imported by the
    # commands that read affine input and by the package's affine names,
    # on first use; a fresh interpreter shows what each path loads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", NO_AFFINE_LAYER, str(SRC.parent.parent / "fixtures")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.splitlines() == ["[]", "[]", "pass 0 True", "6"]


def test_every_public_name_resolves():
    import zdcubes
    missing = [name for name in zdcubes.__all__ if not hasattr(zdcubes, name)]
    assert missing == []
    with pytest.raises(AttributeError, match="no_such_name"):
        zdcubes.no_such_name


LISTED_NAMES = """
import sys
import zdcubes
names = dir(zdcubes)
print(sorted(set(zdcubes.__all__) - set(names)), "discretize" in names,
      "__version__" in names, "zdcubes.affine" in sys.modules)
"""


def test_dir_lists_every_public_name_without_the_affine_layer():
    # dir() reads the affine names from __all__, so listing them imports
    # nothing; a fresh interpreter shows what it loads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", LISTED_NAMES], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.split() == ["[]", "True", "True", "False"]


def _decorators(node) -> set[str]:
    return {(d.func if isinstance(d, ast.Call) else d).id
            for d in node.decorator_list
            if isinstance(d.func if isinstance(d, ast.Call) else d, ast.Name)}


def _needs_dataclass(node: ast.ClassDef) -> bool:
    # a record with none of these is a NamedTuple, which builds faster
    return any(isinstance(item, ast.FunctionDef)
               and (item.name in ("__init__", "__post_init__")
                    or "cached_property" in _decorators(item))
               for item in node.body)


def test_dataclasses_only_where_records_need_them():
    decorated = {f"{path.stem}.{node.name}": _needs_dataclass(node)
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ClassDef) and "dataclass" in _decorators(node)}
    assert sorted(decorated) == [
        "affine.AffineZdSystem", "cube_engine.CubeSet",
        "finite_system.FactorMap", "finite_system.FiniteZdSystem",
        "finite_system.PairRelation", "hypercube.Vertex",
        "return_times.PeriodicSet"]
    assert all(decorated.values())
