"""Every function, class and method defined in src/etsgd/ is named in src/ or perfbench/.

Code that only tests reach stays out of the program: a test that needs a
loop of its own, such as a serial reference, keeps it in its module.  The
check reads names with ast, so it goes by name only: a method counts as
used wherever an attribute of its name is read.  perfbench's Tracer
patches by name, so its string constants count too, and a string passed
after a class, as in patch(objectives.Logistic, "accuracy", ...), names
that class's method.  Dunder methods are called by Python itself.  A
method that shares its name with a method of str, bytes, tuple, list, dict
or set is not counted by name, since a read of that name may be the
built-in's: perfbench must patch it, or it is on the allowlist.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "etsgd"
PERFBENCH = ROOT / "perfbench"

# defined names that nothing in src/ or perfbench/ names, each with the reason it stays
ALLOWED = {
    "setup": "acceptance criteria 10 and 13 draw the paper's randomized slot assignment",
    "TimelineMap.locate": "acceptance criterion 10 inverts the timeline with it",
}
# method names of the built-in containers, which a read of the bare name cannot tell apart
BUILTIN_METHODS = {name for kind in (str, bytes, tuple, list, dict, set) for name in dir(kind)}


def definitions():
    """(name, bare name, is a method): top-level functions and classes, and their methods."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{node.name}.{item.name}", item.name, True


def references():
    """Names read in src/ and perfbench/, perfbench's strings, and the methods it patches."""
    read, strings, patched = set(), set(), set()
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        in_perfbench = path.parent == PERFBENCH
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif not in_perfbench:
                continue
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                owner = node.args[0]
                owner = getattr(owner, "attr", getattr(owner, "id", None))
                patched.update(
                    f"{owner}.{arg.value}" for arg in node.args[1:]
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                )
    return read, strings, patched


def test_no_src_code_is_reached_only_from_tests():
    read, strings, patched = references()
    unused = sorted(
        name for name, bare, method in definitions()
        if name not in patched and (
            method and bare in BUILTIN_METHODS
            or bare not in read and (method or bare not in strings)
        )
    )
    assert unused == sorted(ALLOWED)
