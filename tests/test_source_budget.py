"""Size ratchet for ``src/``: the ROADMAP's "small" criterion, enforced.

Both limits may only tighten: a file leaves ``OVER_600`` when it is
split, and nothing is ever added to it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The files still over 600 lines (ROADMAP, "Orchestrator as a list of
#: phases; ``cli.py`` as a table of commands").
OVER_600 = {"cli.py", "compression/interface.py"}
MAX_CORE_FUNCTION_LINES = 90


def test_no_new_file_over_600_lines():
    over = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if len(path.read_text().splitlines()) > 600
    }
    assert over <= OVER_600


def test_no_core_function_over_90_lines():
    long_functions = {}
    for path in (SRC / "core").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                length = node.end_lineno - node.lineno + 1
                if length > MAX_CORE_FUNCTION_LINES:
                    long_functions[f"{path.name}:{node.name}"] = length
    assert not long_functions
