"""The README's library example runs against the current public API."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_quick_tour_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md: Library quick tour", "exec"), {})
