"""The library imports nothing outside the standard library, numpy and
click: every absolute import in src/zdcubes/*.py names one of them or the
package itself.  Underscored names cross between library modules only from
the array primitives (_arrays) and the text codecs (_text), which import
nothing from the package but errors.  Only cube_engine builds face-group
elements.  The names the benchmark harness looks up in the library
exist.  A run of the commands never imports numpy.ma."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

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
