"""Static checks on the source, standard library only: unused imports and unread private names."""

import ast
import glob
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(path):
    return ast.parse((ROOT / path).read_text(encoding="utf-8"), path)


def test_no_module_or_test_imports_a_name_it_never_reads():
    # __init__.py imports to re-export
    package = sorted(set(glob.glob("src/sumsetlab/*.py", root_dir=ROOT)) - {"src/sumsetlab/__init__.py"})
    unused = []
    for path in package + sorted(glob.glob("tests/*.py", root_dir=ROOT)):
        tree = parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path}:{node.lineno}: {name} is imported but unused")
    assert not unused, "\n".join(unused)


def test_every_private_module_level_name_is_read_by_a_package_module():
    # a module-level function, class or assignment named with a single
    # leading _ needs a reader in the package (a Name load, an Attribute or a
    # name in a from-import); tests do not count as readers
    trees = {path: parse(path) for path in sorted(glob.glob("src/sumsetlab/*.py", root_dir=ROOT))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and name not in read:
                    unread.append(f"{path}:{node.lineno}: {name} is defined but no package module reads it")
    assert not unread, "\n".join(unread)
