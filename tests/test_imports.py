"""Every name a module of src/fmlab imports is used in it, or exported by
__all__; every module-level private name is used somewhere in src/fmlab;
every method and property of a class in src/fmlab is referenced from src,
tests or perfbench; adaptive quadrature is imported only where piecewise
data is integrated, and half-plane splits of rational functions are taken
only in ratfun and hardy."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fmlab"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" binds "c"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_scan_sees_names_and_all():
    source = ("import os\nimport numpy as np\nfrom a import b, c\n"
              "from d import e\n__all__ = ['e']\nnp.zeros(b)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def _bound_names(stmt):
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unreferenced_private_names(sources):
    """(module, name) of the module-level private names (a leading _, not a
    dunder) that no source refers to outside the statement defining them;
    sources maps module names to source text."""
    stmts = [(mod, stmt) for mod, text in sources.items()
             for stmt in ast.parse(text).body]
    refs = []
    for _, stmt in stmts:
        names = set()
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                names.update(a.name for a in n.names)
        refs.append(names)
    out = []
    for i, (mod, stmt) in enumerate(stmts):
        for name in _bound_names(stmt):
            if (name.startswith("_") and not name.endswith("__")
                    and not any(name in r for j, r in enumerate(refs) if j != i)):
                out.append((mod, name))
    return sorted(out)


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def quad_gk_importers(sources):
    """Modules among sources (module name -> text) that import quad_gk."""
    return sorted(mod for mod, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.ImportFrom)
                  and any(a.name == "quad_gk" for a in node.names))


def test_quadrature_lives_in_hardy_and_detect():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert set(quad_gk_importers(sources)) <= {"hardy", "detect"}
    assert quad_gk_importers({"a": "from .hardy import quad_gk as q\n",
                              "b": "from .hardy import riesz_split\n"}) == ["a"]


def riesz_users(sources):
    """Modules among sources (module name -> text) that import riesz_split or
    call a .principal_part( method."""
    return sorted(mod for mod, text in sources.items()
                  if any((isinstance(node, ast.ImportFrom)
                          and any(a.name == "riesz_split" for a in node.names))
                         or (isinstance(node, ast.Call)
                             and isinstance(node.func, ast.Attribute)
                             and node.func.attr == "principal_part")
                         for node in ast.walk(ast.parse(text))))


def test_half_plane_splits_live_in_ratfun_and_hardy():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert set(riesz_users(sources)) <= {"ratfun", "hardy"}
    assert riesz_users({"a": "from .hardy import riesz_split as r\n",
                        "b": "g = f.principal_part('lower')(lam)\n",
                        "c": "from .hardy import boundary_value\nf.principal_part\n"}) \
        == ["a", "b"]


def test_private_name_scan_sees_uses_across_modules():
    sources = {"a": ("_X = 1\n_Y: int = 2\n_U = 3\n\n\ndef _f():\n"
                     "    return _f()\n\n\ndef g():\n    return _X\n\n\n"
                     "class _C:\n    pass\n"),
               "b": "from a import _Y\nimport a\n_W, _V = a._U, 2\nprint(_V)\n__all__ = []\n"}
    assert unreferenced_private_names(sources) == [("a", "_C"), ("a", "_f"), ("b", "_W")]


def unreferenced_members(defining, referencing):
    """(module, class, name) of each method or property of a class in the
    defining sources (module name -> text) whose name no attribute access in
    the referencing texts uses; dunders are left out, the language calls
    them."""
    members = [(mod, cls.name, f.name) for mod, text in defining.items()
               for cls in ast.walk(ast.parse(text)) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)
               and not (f.name.startswith("__") and f.name.endswith("__"))]
    attrs = {n.attr for text in referencing for n in ast.walk(ast.parse(text))
             if isinstance(n, ast.Attribute)}
    return sorted(m for m in members if m[2] not in attrs)


def test_every_class_member_is_referenced():
    defining = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    referencing = [p.read_text(encoding="utf-8") for d in ("src", "tests", "perfbench")
                   for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_members(defining, referencing) == []


def test_member_scan_sees_attribute_uses():
    source = ("class A:\n    def __init__(self):\n        self.f()\n"
              "    def f(self):\n        pass\n    @property\n    def g(self):\n"
              "        return 1\n    def h(self):\n        pass\n")
    assert unreferenced_members({"a": source}, [source, "A().h()\n"]) == [("a", "A", "g")]
