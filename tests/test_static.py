"""Static checks on the source, standard library only: unused imports and unread names."""

import ast
import glob
import re
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


def names_read(tree):
    """Every name a Name load, an Attribute or a from-import reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def module_level_names(tree):
    """(line, name) of each module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))


def package_trees():
    return {path: parse(path) for path in sorted(glob.glob("src/sumsetlab/*.py", root_dir=ROOT))}


def test_every_private_module_level_name_is_read_by_a_package_module():
    # a module-level function, class or assignment named with a single
    # leading _ needs a reader in the package; tests do not count as readers
    trees = package_trees()
    read = set().union(*map(names_read, trees.values()))
    unread = [
        f"{path}:{line}: {name} is defined but no package module reads it"
        for path, tree in trees.items()
        for line, name in module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert not unread, "\n".join(unread)


def test_every_public_module_level_name_has_a_reader():
    # a public module-level function, class or assignment needs a reader in
    # a package module other than __init__.py, whose imports only re-export,
    # or in perfbench/, or a mention in README; tests do not count as readers
    trees = package_trees()
    readers = [tree for path, tree in trees.items() if path != "src/sumsetlab/__init__.py"]
    readers += [parse(path) for path in sorted(glob.glob("perfbench/*.py", root_dir=ROOT))]
    read = set().union(*map(names_read, readers))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unread = [
        f"{path}:{line}: {name} is read by no package module or perfbench/ and README does not name it"
        for path, tree in trees.items()
        for line, name in module_level_names(tree)
        if not name.startswith("_") and name not in read and not re.search(rf"\b{name}\b", readme)
    ]
    assert not unread, "\n".join(unread)
