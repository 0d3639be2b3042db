"""The README's library quick tour runs as written and returns the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_quick_tour_runs_and_returns_its_commented_values():
    namespace: dict = {}
    checked = []
    for line in quick_tour():
        code, _, comment = line.partition("#")
        comment = comment.strip()
        if comment.startswith("'"):
            # an expression whose value the comment states
            assert eval(code, namespace) == ast.literal_eval(comment), line
            checked.append(ast.literal_eval(comment))
        elif code.strip():
            exec(code, namespace)
    assert checked == ["cnp_consistent(N=60)", "yes", "pure", "admits"]
