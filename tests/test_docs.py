"""The README's examples run against the current public API, and its run
config section names only key paths of the grammar table."""

import json
import os
import re

from collisim.config import RUN, parse_run_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme_section(heading):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return re.split(r"\n##+ ", fh.read().split(f"{heading}\n", 1)[1], maxsplit=1)[0]


def _table_paths(table, prefix=""):
    for key, (kind, _) in table.items():
        yield prefix + key
        if isinstance(kind, dict):
            yield from _table_paths(kind, f"{prefix}{key}.")


def test_readme_library_quick_tour_runs():
    section = _readme_section("## Library quick tour")
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md: Library quick tour", "exec"), {})


def test_readme_run_config_example_parses():
    section = _readme_section("### Run config (JSON)")
    cfg = parse_run_config(json.loads(section.split("```json\n", 1)[1].split("```", 1)[0]))
    assert cfg.quantities == ("n", "t", "pop_e", "rate_q")
    assert cfg.collision.coupling.j[2, 1] == 0.3


def test_readme_run_config_names_only_table_paths():
    prose = _readme_section("### Run config (JSON)").split("```", 2)[2]
    # a dotted path that opens a code span, such as `coupling.ssc = {...}`
    named = {m.group() for span in re.findall(r"`([^`]+)`", prose)
             if (m := re.match(r"[a-z_]+(\.[a-z_0-9]+)+", span))}
    assert {"model.beta", "coupling.j", "coupling.ssc", "run.rho0"} <= named
    assert named <= set(_table_paths(RUN))
