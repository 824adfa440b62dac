"""Every public name of the package has a caller outside the tests, and every
private module-level function and class has one in the package.

No linter is a dependency, so the check is an `ast` scan, as in
`test_unused_imports.py`. A public name is a module-level function or class
whose name does not start with "_", an `__all__` entry, or a public method
or property of a public class. It must be read somewhere in `src/` outside
its own definition, or in `scripts/` or `bench/` outside the bench's own
tests; an `__all__` entry and a definition are not reads. An attribute
lookup reads every public name it spells. A bare name reads a module-level
name only in its defining module or in a file that imports it from there
(directly, or through a module that re-exports it, such as the package
`__init__`), so a local variable that shares a public name reads nothing. A
name that only tests read belongs in `TEST_CARRIED`, with the test that
carries it and why, or it goes. A private name, a module-level function or
class whose name starts with one "_", must be read in `src/` outside its own
definition; scripts, benchmarks and tests do not count. A module exports only
names it defines or reads itself; the package `__init__` is the one module
that exports what it imports.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "sideband_lab"
CALLERS = sorted([*(REPO / "scripts").glob("*.py"),
                  *(p for p in (REPO / "bench").glob("*.py") if not p.name.startswith("test_"))])

#: public names that only tests read: module.name -> the tests that carry it, and why it stays
TEST_CARRIED = {
    "scattering.spectrum_from_scattering":
        "test_scattering.py::TestSpectrumComposition: the scattering-row composition that "
        "the single-tone closed forms must equal at every point",
    "scattering.output_commutator":
        "test_acceptance.py::test_criterion_3_commutator_constancy and "
        "test_scattering.py::TestOutputCommutator: the paper's commutator invariant",
    "scattering.imbalance":
        "test_scattering.py::TestImbalance: the paper's single-tone red/blue imbalance, the "
        "pointwise blue-minus-red difference whose weight integrated_asymmetry gives",
    "scattering.integrated_asymmetry":
        "test_scattering.py::TestIntegratedAsymmetry: the single-tone asymmetry 2 n_eff + 1, "
        "its brackets evaluated at both signs of one tone",
    "linear_response.output_spectrum_lr":
        "test_acceptance.py::test_criterion_5_linear_response_scattering_equivalence and "
        "test_linear_response.py::TestOutputSpectrumCrossFormulation: linear response == "
        "scattering",
    "calibration.noise_floor_increase":
        "test_calibration.py::TestNoiseFloorLedger and TestSidebandDifferenceAndAverage::"
        "test_consistency_with_spectral_weights: the paper's calibration closure",
    "calibration.sideband_difference_and_average":
        "test_calibration.py::TestSidebandDifferenceAndAverage: the paper's calibration "
        "closure, checked against sideband_weights",
    "calibration.delta_from_power_ratio":
        "test_acceptance.py::test_criterion_8_shunt_transmission and test_calibration.py::"
        "TestThermometry::test_conversion_constant_asymmetry: the paper's calibration closure",
    "config.save_config":
        "tests/golden.py, test_cli.py and test_config_io.py write configuration files with it: "
        "the writer of the format that load_config reads, both from SYSTEM_KEYS and BATH_KEYS",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The public and private names that ``tree`` defines: module.name -> its
    node, public methods of public classes as Class.method."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            found[node.name] = node
            if isinstance(node, ast.ClassDef) and not _private(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = item
    return found


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _reads(tree: ast.Module) -> list[tuple[str, bool, frozenset[int]]]:
    """(name, whether an attribute, ids of the definitions around it) of every
    name read and attribute looked up."""
    reads = []

    def visit(node, around):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            around = around | {id(node)}
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.append((node.id, False, around))
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            reads.append((node.attr, True, around))
        for child in ast.iter_child_nodes(node):
            visit(child, around)

    visit(tree, frozenset())
    return reads


def _imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """local name -> (module, name) of every name ``tree`` imports from the package."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module or "__init__"
            elif node.level == 0 and (node.module or "").split(".")[0] == "sideband_lab":
                module = node.module.partition(".")[2] or "__init__"
            else:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = (module, alias.name)
    return bound


def _assigned(tree: ast.Module) -> set[str]:
    """The names that ``tree`` defines or assigns at module level (imports aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def resolver(trees: dict[str, ast.Module]):
    """origin(module, name): the (module, name) that defines a name that package
    module ``module`` binds, through its imports and the re-exports they reach."""
    imports = {name: _imports(tree) for name, tree in trees.items()}

    def origin(module, name):
        while name in imports.get(module, {}):
            module, name = imports[module][name]
        return module, name

    return origin


def scan(modules: dict[str, str], callers: list[str]) -> tuple[list[str], list[str]]:
    """(names no caller reads, exports a module neither defines nor reads).

    ``modules`` maps module names to the sources of the package; ``callers``
    are the sources of scripts and benchmarks, which only read, and read no
    private name.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    origin = resolver(trees)
    # (module, name) or the attribute name of every read, with the definitions
    # around it and whether the package reads it
    reads = []
    for module, tree in [*trees.items(), *((None, ast.parse(source)) for source in callers)]:
        bound = {local: origin(*source) for local, source in _imports(tree).items()}
        for name, attribute, around in _reads(tree):
            if attribute:
                reads.append((name, around, module is not None))
            elif name in bound:
                reads.append((bound[name], around, module is not None))
            elif module is not None:
                reads.append(((module, name), around, True))
    uncalled, foreign = [], []
    for module, tree in trees.items():
        names = _definitions(tree)
        local = {name for name, _, _ in _reads(tree)} | _assigned(tree)
        for export in _exports(tree):
            names.setdefault(export, None)  # a constant or a re-export: any read calls it
            if export not in local and module != "__init__":
                foreign.append(f"{module}.{export}")
        for qualified, node in names.items():
            attr = qualified.rsplit(".", 1)[-1]
            targets = {attr} if "." in qualified else {attr, origin(module, attr)}
            counted = (read for read, around, in_package in reads
                       if id(node) not in around and (in_package or not _private(attr)))
            if not any(read in targets for read in counted):
                uncalled.append(f"{module}.{qualified}")
    return uncalled, foreign


def _package_scan():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    return scan(modules, [path.read_text() for path in CALLERS])


def test_the_scan_finds_an_uncalled_name():
    modules = {
        "__init__": "from .a import f\n__all__ = ['f']\n",
        "a": ("from .b import g, h\n__all__ = ['f', 'g', 'h', 'K']\nK = 1\n"
              "def f():\n    return f() + h()\n"
              "class C:\n    def used(self):\n        return self.read\n"
              "    @property\n    def read(self):\n        return 2\n"
              "    def unread(self):\n        pass\n"),
        "b": ("def g():\n    pass\ndef h():\n    return _kept(_Box())\n"
              "def _kept(box):\n    pass\ndef _dropped():\n    return _dropped()\n"
              "class _Box:\n    def unread(self):\n        pass\n"),
        "c": "def imbalance():\n    pass\ndef _bench_only():\n    pass\n",
    }
    callers = ["from sideband_lab.a import K, C\nC().used(K)\n",
               "def check(w):\n    imbalance = w[1] - w[0]\n    return imbalance\n",
               "from sideband_lab.c import _bench_only\n_bench_only()\n"]
    uncalled, foreign = scan(modules, callers)
    # f and _dropped read only themselves, a exports g, which it imports but never
    # reads, the caller's imbalance is a local variable, not c's function, and only
    # a caller outside the package reads _bench_only; a private class's methods go
    # unscanned
    assert sorted(uncalled) == ["a.C.unread", "a.f", "a.g", "b._dropped", "b.g",
                                "c._bench_only", "c.imbalance"]
    assert foreign == ["a.g"]


def test_every_public_name_has_a_caller():
    uncalled, _ = _package_scan()
    assert sorted(set(uncalled) - set(TEST_CARRIED)) == []


def test_every_test_carried_name_is_still_test_only():
    uncalled, _ = _package_scan()
    assert sorted(set(TEST_CARRIED) - set(uncalled)) == []


def test_every_export_is_defined_or_read():
    _, foreign = _package_scan()
    assert foreign == []
