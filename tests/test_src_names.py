"""Every definition in `src/subflow` has a caller in `src/subflow`: code that
only tests reach is either removed or named here with its reason."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subflow"

# "module.name" or "module.Class.name" -> why it stays without a src/ caller
ALLOWED = {
    "rasterizer.read_fmap": "the reader of `render --depth`'s FMAP maps; perfbench "
                            "and the tests read them",
    "rasterizer.TileWeights.nbytes": "perfbench's tracer counts the compositing "
                                     "weights' bytes through it",
}


def definitions(tree: ast.Module, module: str):
    """("module[.Class].name", node) for each module- and class-level def or
    class; dunder methods are left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{module}.{node.name}.{member.name}", member


def uses(tree: ast.AST) -> Counter:
    """How often the code under `tree` reads each name as a `Name`, an
    `Attribute` or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def unnamed_definitions(src: Path) -> set[str]:
    """The definitions under `src` whose name no code outside their own body
    reads."""
    trees = {".".join(p.relative_to(src).with_suffix("").parts):
             ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.rglob("*.py"))}
    used = sum(map(uses, trees.values()), Counter())
    return {qual for module, tree in trees.items()
            for qual, node in definitions(tree, module)
            if used[node.name] == uses(node)[node.name]}


def test_every_src_definition_is_named_by_src():
    assert unnamed_definitions(SRC) == set(ALLOWED)


def test_scan_finds_an_unused_definition(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("def used():\n    pass\n\n\ndef unused():\n    pass\n\n\n"
                              "class Box:\n    def __init__(self):\n        used()\n\n"
                              "    def lonely(self):\n        return self.lonely()\n")
    (pkg / "b.py").write_text("from .a import Box\n")
    assert unnamed_definitions(pkg) == {"a.unused", "a.Box.lonely"}
