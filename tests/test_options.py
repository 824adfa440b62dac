"""Every option of a public function is one that a caller sets and one that a caller leaves out.

An option is a parameter with a default. The public functions are those of
`test_public_names.py`: module-level functions, public methods of public
classes, and a public class's ``__init__``, which a call of the class
reaches. A ``@dataclass`` class without its own ``__init__`` gets the one
the decorator writes: its parameters are the annotated fields in order,
``ClassVar`` annotations and plain class attributes aside, and a field with
a value is an option. The callers are the calls in `src/`, in `scripts/` and
in the bench's files outside its tests. Some call must leave each option out
and some call must set it: an option that no caller sets is a branch that no
run takes, and a default that no caller leaves out is a second copy of a
value the caller holds already, such as an argparse default of the CLI. A
call that passes an enclosing function's option of the same name on
unchanged neither sets nor leaves out the option, since the enclosing
function's callers decide it; passing on a required parameter sets it. A
call of ``*args`` or ``**kwargs`` sets every option. Calls resolve as reads
do in `test_public_names.py`: a bare name through the imports, an attribute
to every public function, method and class that it spells. A function with
options that a caller reads without calling it is called where the scan
cannot see, so its options are not checked; the one such function is
``cli.main``, which the bench hands to its job runner. An option that only
tests set belongs in `TEST_SET`, with the tests that set it and why, or it
goes.
"""

import ast

from test_public_names import CALLERS, PACKAGE, _imports, resolver

#: options that only tests set: module.function.option -> the tests that set it, and why it stays
TEST_SET = {
    "langevin.integrate_langevin.record_field":
        "the bit-level oracle tests of test_langevin.py compare recorded output samples, and "
        "test_bench_targets.py::test_oracle_counters_read_real_calls checks the tracer's sample "
        "counter against them",
}


def _options(args: ast.arguments) -> list[str]:
    """The parameters with a default of a signature, the positional ones first."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    return positional[len(positional) - len(args.defaults):] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _class_var(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return ast.unparse(annotation).rsplit(".", 1)[-1] == "ClassVar"


def _fields(node: ast.ClassDef) -> tuple[list[str], list[str]] | None:
    """(fields, options) of the ``__init__`` that ``@dataclass`` writes for ``node``,
    or None if ``node`` is no dataclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    if not any(ast.unparse(d) in ("dataclass", "dataclasses.dataclass") for d in decorators):
        return None
    fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name) and not _class_var(item.annotation)]
    return ([f.target.id for f in fields],
            [f.target.id for f in fields if f.value is not None])


def _signatures(tree: ast.Module) -> dict[str, tuple[list[str], list[str]]]:
    """qualified name -> (the parameters a call binds by position, the options) of every
    public function of ``tree``; a class's entry is its ``__init__``, written by
    ``@dataclass`` where the class has none."""
    found = {}

    def add(name, node, bound_first):
        positional = [a.arg for a in node.args.posonlyargs + node.args.args]
        found[name] = (positional[1:] if bound_first else positional, _options(node.args))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node.name, node, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fields = _fields(node)
            if fields is not None:
                found[node.name] = fields
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    add(node.name, item, True)
                elif not item.name.startswith("_"):
                    add(f"{node.name}.{item.name}", item, not static)
    return found


def _uses(tree: ast.Module) -> list[tuple[str, bool, ast.Call | None, frozenset[str]]]:
    """(name, whether an attribute, the call or None for a read that is no call, the
    options of the functions around it) of every call and every name read."""
    uses = []

    def visit(node, around):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            around = around | set(_options(node.args))
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            func = node.func
            attribute = isinstance(func, ast.Attribute)
            uses.append((func.attr if attribute else func.id, attribute, node, around))
            children = [child for child in children if child is not func]
            if attribute:  # the object whose attribute is called is read
                children.append(func.value)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.append((node.id, False, None, around))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            uses.append((node.attr, True, None, around))
        for child in children:
            visit(child, around)

    visit(tree, frozenset())
    return uses


def _given(call: ast.Call, positional: list[str], options: list[str],
           around: frozenset[str]) -> tuple[set[str], set[str]]:
    """(the options ``call`` sets, those it passes on from an enclosing function)."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None
                                                                 for k in call.keywords):
        return set(options), set()
    passed = [*zip(positional, call.args), *((k.arg, k.value) for k in call.keywords)]
    through = {name for name, value in passed
               if isinstance(value, ast.Name) and value.id == name and name in around}
    return {name for name, _ in passed} - through, through


def scan(modules: dict[str, str], callers: list[str]) -> tuple[list[str], list[str], list[str]]:
    """(options no call sets, options no call leaves out, functions with options read
    without a call).

    ``modules`` maps module names to the sources of the package; ``callers``
    are the sources of scripts and benchmarks. An option is named
    module.function.option.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    origin = resolver(trees)
    signatures = {(module, name): signature for module, tree in trees.items()
                  for name, signature in _signatures(tree).items()}
    classes = {(module, node.name) for module, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    set_by, left_out, escaped = set(), set(), set()
    for module, tree in [*trees.items(), *((None, ast.parse(source)) for source in callers)]:
        bound = {local: origin(*source) for local, source in _imports(tree).items()}
        for name, attribute, call, around in _uses(tree):
            if attribute:
                targets = [key for key in signatures if key[1].rsplit(".", 1)[-1] == name]
            else:
                key = bound.get(name, (module, name))
                targets = [key] if key in signatures else []
            for key in targets:
                positional, options = signatures[key]
                if call is None:
                    if options and key not in classes:  # a class is read as a type, not handed on
                        escaped.add(key)
                    continue
                given, through = _given(call, positional, options, around)
                set_by.update((key, option) for option in given)
                left_out.update((key, option) for option in options
                                if option not in given | through)
    found = {f"{module}.{name}.{option}": ((module, name), option)
             for (module, name), (_, options) in signatures.items()
             if (module, name) not in escaped for option in options}
    return (sorted(named for named, option in found.items() if option not in set_by),
            sorted(named for named, option in found.items() if option not in left_out),
            sorted(f"{module}.{name}" for module, name in escaped))


def _package_scan():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    return scan(modules, [path.read_text() for path in CALLERS])


def test_the_scan_finds_a_never_set_option_and_a_never_omitted_default():
    modules = {
        "__init__": "from .a import relay\n",
        "a": ("def relay(x, *, k=1):\n    return inner(x, k=k)\n"
              "def inner(x, k=1):\n    return x + k\n"
              "def dead(x, flag=False):\n    return inner(x)\n"
              "def twice(x, *, n=3):\n    return dead(x)\n"
              "def pick(x, kind):\n    return floor(x, kind)\n"
              "def floor(x, kind='sym'):\n    return x\n"
              "class E(Exception):\n    def __init__(self, value, message=None):\n"
              "        super().__init__(message)\n"
              "    @classmethod\n    def build(cls, value, note=''):\n        return cls(value)\n"
              "def main(argv=None):\n    raise E(1)\n"
              "from dataclasses import dataclass\nfrom typing import ClassVar\n"
              "@dataclass(frozen=True)\nclass Row:\n    x: float\n    unit: str = 'Hz'\n"
              "    tag: str = ''\n    scale: ClassVar[float] = 2.0\n    kind = 'row'\n"),
    }
    callers = [
        "from sideband_lab import relay\nfrom sideband_lab.a import E, Row, dead, floor, pick, twice\n"
        "relay(1)\nrelay(2, k=3)\ndead(4)\ntwice(5, n=6)\npick(7, 'normal')\nfloor(8)\n"
        "E.build(9)\nE.build(10, 'set')\nRow(1.0, 'kHz')\nRow(2.0, unit='s')\n",
        "import sideband_lab.a as a\nrun = [a.main]\nlambda x, n=0: a.twice(x, n=n)\n",
    ]
    never_set, never_omitted, escaped = scan(modules, callers)
    # relay passes its option k on to inner, which sets nothing, while pick sets
    # floor's kind from a required parameter; the lambda's forward of n omits
    # nothing, and main, handed on as a value, goes unchecked. Row's fields are
    # its options, while its ClassVar and plain class attribute are none
    assert never_set == ["a.E.message", "a.Row.tag", "a.dead.flag", "a.inner.k"]
    assert never_omitted == ["a.Row.unit", "a.twice.n"]
    assert escaped == ["a.main"]


def test_every_option_is_set_and_left_out_by_a_caller():
    never_set, never_omitted, _ = _package_scan()
    assert sorted(set(never_set + never_omitted) - set(TEST_SET)) == []


def test_every_test_set_option_is_still_set_by_tests_alone():
    never_set, _, _ = _package_scan()
    assert sorted(set(TEST_SET) - set(never_set)) == []


def test_the_one_function_handed_on_as_a_value_is_cli_main():
    assert _package_scan()[2] == ["cli.main"]
