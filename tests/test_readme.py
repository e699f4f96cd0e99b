"""README's code runs: its "Library sketch" block, with the values its comments state."""

import pathlib
import re

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
