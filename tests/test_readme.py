"""README's code runs and the names it cites exist.

The "Library sketch" block runs with the values its comments state; the
"Key operations" paragraph and the certificate list name live code, and
so do the dotted names of the product-table paragraphs.
"""

import importlib
import importlib.util
import pathlib
import pkgutil
import re

import sumsetlab

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# the value each commented call of the sketch states
SKETCH_VALUES = {"product_size": 35, "deficiency": 7, "detect_progression": None, "min_progression_cover": 4}


def _section_code(heading: str) -> str:
    """The first python block under a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs_and_states_its_values():
    code = _section_code("Library sketch")
    namespace: dict = {}
    exec(code, namespace)
    seen = {}
    for line in code.splitlines():
        call = re.match(r"sl\.(\w+)\(", line)
        if call and call.group(1) in SKETCH_VALUES:
            name = call.group(1)
            expression, comment = line.split("#", 1)
            seen[name] = eval(expression, namespace)
            assert str(SKETCH_VALUES[name]) in comment, line
    assert seen == SKETCH_VALUES


def _block_after(text: str, start: str) -> str:
    """The blank-line-separated block of README text that begins with start."""
    return next(block for block in text.split("\n\n") if block.startswith(start))


def _resolves(name: str) -> bool:
    """name is an attribute of sumsetlab or one of its modules, or of a backend for backend.*.

    A lower-case label also resolves when a module defines it as the value
    of the upper-case constant of the same name, as each certificate is. A
    dotted name also resolves on the module its head names, such as
    `sumsetlab.laws` or `itertools.combinations`.
    """
    if name.startswith("backend."):
        return hasattr(sumsetlab.backend_from_spec("zd:1"), name.split(".", 1)[1])
    modules = [sumsetlab]
    modules += [importlib.import_module(f"sumsetlab.{m.name}") for m in pkgutil.iter_modules(sumsetlab.__path__)]
    head, _, attr = name.partition(".")
    if attr and importlib.util.find_spec(head) is not None and hasattr(importlib.import_module(head), attr):
        return True
    for module in modules:
        if hasattr(module, head) and (not attr or hasattr(getattr(module, head), attr)):
            return True
        if not attr and getattr(module, head.upper(), None) == head:
            return True
    return False


def test_key_operations_and_certificates_name_live_code():
    text = README.read_text(encoding="utf-8")
    # block -> whether only its dotted names are checked: the product-table
    # paragraphs also name law ids such as `equality`
    blocks = {
        "key operations": (_block_after(text, "Key operations:"), False),
        "certificates": (_block_after(text, "* `certified_exact`"), False),
        "product table": (_block_after(text, "Every checker in"), True),
        "small products": (_block_after(text, "For a fixed A"), True),
    }
    for where, (block, dotted_only) in blocks.items():
        spans = (" ".join(s.split()) for s in re.findall(r"`([^`]+)`", block))
        # identifiers, with a call's arguments dropped: not `verify --law 3k4` or `|C| - 1`
        names = [m.group(1) for s in spans if (m := re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", s))]
        if dotted_only:
            names = [n for n in names if "." in n]
        assert len(names) >= 2, where
        assert [n for n in names if not _resolves(n)] == [], where
