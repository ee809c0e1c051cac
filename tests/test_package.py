import ast
from pathlib import Path

import pytest

import randpipe

MODULES = sorted(Path(randpipe.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def test_init_defines_nothing():
    """__init__.py is its docstring alone: each public name has one import path, its module's."""
    tree = ast.parse(Path(randpipe.__file__).read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def unread_api(modules, readers=()):
    """Public top-level functions and classes, and public methods and properties, that
    `modules` (module name -> source) define and no code reads, as 'module.name' or
    'module.Class.name'. A read is a loaded name or attribute in any of `modules` or
    `readers`; an import or a string is not. Reads match by name alone, so a read of
    a namesake elsewhere can hide an unread definition."""
    defined, read = [], set()
    for module, source in [*modules.items(), *((None, source) for source in readers)]:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
        for top in tree.body if module else []:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            defined.append((f"{module}.{top.name}", top.name))
            if isinstance(top, ast.ClassDef):
                defined.extend((f"{module}.{top.name}.{node.name}", node.name) for node in top.body
                               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))
    return sorted(qualified for qualified, name in defined if name not in read)


def test_no_unread_api():
    """Every public function, class, method and property in src/ is read by the package
    or by the benchmark. The tests do not count."""
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    readers = [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert readers
    assert unread_api(modules, readers) == []


def assigned(path, name):
    """The expression assigned to `name` at the top level of the module at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == [name])


def test_benchmark_names_without_a_function():
    """The `layer.function` names in perfbench's per-function metrics and tracer hooks
    that name no public function of src/. The tracer wraps only functions that exist, so
    each metric of these names reads 0 until the benchmark drops it."""
    functions = {f"{path.stem}.{node.name}" for path in MODULES
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    bench = Path(__file__).parent.parent / "perfbench"
    metrics = ast.literal_eval(assigned(bench / "run.py", "FUNCTION_METRICS"))
    hooks = [key.value for key in assigned(bench / "tracer.py", "HOOKS").keys]
    named = {".".join(name.split(".")[:2]) for name, _ in metrics if name.count(".") == 2}
    assert "crack.find_seed" in named and "samples.load_trace" in hooks
    assert sorted(named.union(hooks) - functions) == [
        "cli.build_parser", "crack.build_prob_dist", "crack.find_seed_opt"]


def test_unread_api_check_sees_each_form():
    modules = {
        "a": ("def used():\n    def inner(): pass\ndef unused(): pass\ndef _private(): pass\n"
              "class Kept:\n    def method(self): pass\n    @property\n    def prop(self): pass\n"
              "    def _hidden(self): pass\n    def __len__(self): return 0\n"
              "class Gone:\n    pass\nclass Benched: pass\nused()\n"),
        "b": "from a import unused\nimport a\na.Kept().method()\nx = ['prop', 'Gone']\nGone = 1\n",
    }
    assert unread_api(modules, ["k = Benched\nobj.prop = 2\n"]) == [
        "a.Gone", "a.Kept.prop", "a.unused"]
    assert unread_api(modules) == ["a.Benched", "a.Gone", "a.Kept.prop", "a.unused"]


def unused_imports(source):
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


ARGPARSE_PRIVATE = {"_subparsers", "_actions", "_group_actions"}


def argparse_private_reads(source):
    """Lines that read an argparse private attribute, as `._name` or `getattr(x, "_name")`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ARGPARSE_PRIVATE:
            found.add((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and getattr(node.args[1], "value", None) in ARGPARSE_PRIVATE):
            found.add((node.lineno, node.args[1].value))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_argparse_private_reads(path):
    # argparse's private attributes can change between Python versions.
    assert argparse_private_reads(path.read_text(encoding="utf-8")) == []


def test_argparse_private_check_sees_each_form():
    source = ("p = build()\nsub = p._subparsers\nacts = p._actions[0]._group_actions\n"
              "g = getattr(p, '_actions', None)\n_actions = ['._actions']\np.actions\n")
    assert argparse_private_reads(source) == [
        (2, "_subparsers"), (3, "_actions"), (3, "_group_actions"), (4, "_actions")]


def found_in_functions(source, match):
    """The line of each node of source that match(node) accepts, with the function that
    holds it (None at the top level)."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        elif match(node):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def is_file_read(node):
    """Whether node reads a file: the builtin open() with a mode that has none of 'w', 'a',
    'x' and '+', `.read_bytes()`, `.read_text()` or `fromfile`. A mode that is not a literal
    counts as a read."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", None)
    if name == "open":
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax+"))
    return (name or getattr(node.func, "attr", None)) in ("read_bytes", "read_text", "fromfile")


def test_one_reader():
    """samples._read_input is the only code in src/ that reads a file, so every input
    file fails to read with the same error and message."""
    assert {(path.stem, where) for path in MODULES
            for _, where in found_in_functions(path.read_text(encoding="utf-8"),
                                               is_file_read)} == {
        ("samples", "_read_input")}


def test_reader_check_sees_each_form():
    source = ("open(p)\nopen(p, 'rb')\nopen(p, 'w', newline='')\nopen(p, mode='ab')\n"
              "open(p, 'r+b')\nopen(p, m)\nPath(p).read_bytes()\np.read_text('utf-8')\n"
              "np.fromfile(p, np.uint8)\ndef f(p):\n    with open(p, mode='rt') as fh:\n"
              "        return fh.read()\np.write_text('x')\nopen(p, 'x')\n"
              "os.open(p, os.O_WRONLY)\nfromfile(p)\n")
    assert found_in_functions(source, is_file_read) == [
        (1, None), (2, None), (6, None), (7, None), (8, None), (9, None), (11, "f"), (16, None)]


def is_file_write(node):
    """Whether node writes a file: the builtin open() with a mode that has 'w', 'a', 'x' or
    '+', `.write_bytes()`, `.write_text()`, `tofile` or `savetxt`. A mode that is not a
    literal counts as a write. `os.open` does not count."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", None)
    if name == "open":
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))
    return (name or getattr(node.func, "attr", None)) in (
        "write_bytes", "write_text", "tofile", "savetxt")


def is_binary_open(node):
    """Whether node is the builtin open() with a literal mode that has 'b'."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), None)
    return isinstance(mode, ast.Constant) and "b" in mode.value


def test_one_writer():
    """samples._open_output is the only code in src/ that writes a file, so every output
    file fails to write with the same message."""
    assert {(path.stem, where) for path in MODULES
            for _, where in found_in_functions(path.read_text(encoding="utf-8"),
                                               is_file_write)} == {
        ("samples", "_open_output")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_text_writes_set_newline(path):
    """Every file write in the module opens in binary mode, so its lines end in '\\n' on
    every platform; a text-mode write without `newline=` ends them in os.linesep."""
    source = path.read_text(encoding="utf-8")
    assert set(found_in_functions(source, is_file_write)) <= set(
        found_in_functions(source, is_binary_open))


def test_writer_check_sees_each_form():
    source = ("open(p, 'w', encoding='utf-8')\nopen(p, 'w', newline='')\nopen(p, 'wb')\n"
              "open(p)\nopen(p, mode='a')\nopen(p, 'r+', encoding='utf-8')\n"
              "open(p, 'x', -1, 'utf-8', None, '')\nopen(p, 'rb')\nos.open(p, os.O_WRONLY)\n"
              "open(p, m)\nopen(p, mode='ab+')\nopen(p, encoding='utf-8')\n"
              "Path(p).write_text('x')\np.write_bytes(b'')\narr.tofile(p)\nnp.savetxt(p, a)\n"
              "def f(p):\n    with open(p, mode='xb') as fh:\n        fh.write(b'')\n"
              "p.read_bytes()\nnp.fromfile(p)\nsys.stdout.write('x')\n")
    assert found_in_functions(source, is_file_write) == [
        (1, None), (2, None), (3, None), (5, None), (6, None), (7, None), (10, None),
        (11, None), (13, None), (14, None), (15, None), (16, None), (18, "f")]
    assert found_in_functions(source, is_binary_open) == [
        (3, None), (8, None), (11, None), (18, "f")]


def knows_line_ends(node):
    """Whether node is a str or bytes literal holding '\\r', or names TextIOWrapper as a
    name, an attribute or an import."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
        return ("\r" if isinstance(node.value, str) else b"\r") in node.value
    names = (getattr(node, "id", None), getattr(node, "attr", None),
             node.name if isinstance(node, ast.alias) else None)
    return "TextIOWrapper" in names


def test_one_line_end_rule():
    """samples._read_input is the only code in src/ that knows line ends: nothing else
    holds a '\\r' or reads through TextIOWrapper, so every input file counts its lines
    as `_read_input` ends them."""
    assert {(path.stem, where) for path in MODULES
            for _, where in found_in_functions(path.read_text(encoding="utf-8"),
                                               knows_line_ends)} == {("samples", "_read_input")}


def test_line_end_check_sees_each_form():
    source = ("def f(d):\n    return d.replace(b'\\r\\n', b'\\n')\n'\\r'\nx = '\\\\r'\n"
              "import io\nio.TextIOWrapper(fh)\nfrom io import TextIOWrapper as T\n"
              "TextIOWrapper\nf'{x}\\r'\nb'\\n'\n'TextIOWrapper'\n")
    assert found_in_functions(source, knows_line_ends) == [
        (2, "f"), (3, None), (6, None), (7, None), (8, None), (9, None)]


def formats_values(node):
    """Whether node formats a value: an f-string field with a format spec (a `!r`
    conversion alone is not one), a call of format() or of a `.format` method, or `%`
    with a string on its left."""
    if isinstance(node, ast.FormattedValue):
        return node.format_spec is not None
    if isinstance(node, ast.Call):
        return "format" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and (isinstance(node.left, ast.JoinedStr)
                 or isinstance(getattr(node.left, "value", None), (str, bytes))))


def test_one_place_formats_numbers():
    """cli._emit is the only code in src/ that formats a value, so every float prints to
    the places cli._PLACES gives its key, and every record holds numbers until printed."""
    assert {(path.stem, where) for path in MODULES
            for _, where in found_in_functions(path.read_text(encoding="utf-8"),
                                               formats_values)} == {("cli", "_emit")}


def test_format_check_sees_each_form():
    source = ("f'{x:.4f}'\nf'{x!r}'\nf'{x}'\nformat(x, '.2f')\n'{}'.format(x)\n'%d' % x\n"
              "x % 2\ndef f(x, w):\n    return f'{x:>{w}}'\nb'%d' % x\nf'{x}%' % y\n"
              "fmt.format\nf'{x!r:>8}'\n")
    assert found_in_functions(source, formats_values) == [
        (1, None), (4, None), (5, None), (6, None), (9, "f"), (10, None), (11, None),
        (13, None)]


def console_uses(source):
    """Lines that call print() or name sys.stdout or sys.stderr, as an attribute or
    an import, with the name used."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            found.add((node.lineno, "print"))
        elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
              and getattr(node.value, "id", None) == "sys"):
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found.update((node.lineno, a.name) for a in node.names
                         if a.name in ("stdout", "stderr"))
    return sorted(found)


def test_only_cli_writes_to_the_console():
    """The library returns results; cli alone prints them, so the text format lives there."""
    assert {path.name for path in MODULES if console_uses(path.read_text(encoding="utf-8"))} == {
        "cli.py"}


def test_console_check_sees_each_form():
    source = ("print('x')\nsys.stdout.write('x')\nf(file=sys.stderr)\n"
              "from sys import stdout as out, argv\nlog.print\nout.stdout\n"
              "def f(print): return print\nimport sys\n")
    assert console_uses(source) == [(1, "print"), (2, "stdout"), (3, "stderr"), (4, "stdout")]


def test_integer_rule_lives_in_avrprng():
    """Only avrprng imports operator or an `index`: every other module takes
    its integers through avrprng._as_int, so the rule is decided in one place."""
    importers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name.partition(".")[0] for a in node.names}
                if isinstance(node, ast.ImportFrom) and node.module:
                    names.add(node.module)
                if names & {"operator", "index"}:
                    importers.add(path.name)
    assert importers == {"avrprng.py"}


# The package modules each module may import: avrprng < samples < extract < fips, crack
# on avrprng and samples alone, cli on every layer, and __main__ on cli alone.
LOWER_LAYERS = {
    "__init__": set(), "avrprng": set(), "samples": {"avrprng"},
    "extract": {"avrprng", "samples"}, "fips": {"avrprng", "samples", "extract"},
    "crack": {"avrprng", "samples"}, "cli": {"avrprng", "samples", "extract", "fips", "crack"},
    "__main__": {"cli"},
}


def package_imports(source):
    """The package modules that source imports, as `from .x import` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.partition(".")[0]] if node.module
                         else [a.name for a in node.names])
    return found


def layer_breaches(modules):
    """(module, imported) for each package import in `modules` (module name -> source)
    that LOWER_LAYERS does not allow."""
    return sorted((module, name) for module, source in modules.items()
                  for name in package_imports(source) - LOWER_LAYERS[module])


def test_layers_import_downward():
    """Each module imports only the layers below it, so no layer depends on one above."""
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert set(modules) == set(LOWER_LAYERS)
    assert layer_breaches(modules) == []


def test_layer_check_sees_each_form():
    source = ("from __future__ import annotations\nimport numpy\nfrom .avrprng import _as_int\n"
              "from . import fips, samples as s\nfrom .extract.sub import x\n"
              "from randpipe import cli\n")
    assert package_imports(source) == {"avrprng", "fips", "samples", "extract"}
    assert layer_breaches({"samples": "from .extract import read_bits\n",
                           "extract": "from .samples import x\nfrom . import fips\n",
                           "crack": "from . import avrprng, fips\n"}) == [
        ("crack", "fips"), ("extract", "fips"), ("samples", "extract")]


def test_unused_import_check_sees_each_form():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\nfrom . import crack as c\n"
              "__all__ = ['field']\ndataclass(np.zeros)\n")
    assert unused_imports(source) == [(2, "os"), (4, "field"), (5, "c")]
