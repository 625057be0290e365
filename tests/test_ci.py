"""The CI workflow's shell checks can fail."""
import pathlib
import re

import pytest

from mutants import MUTANTS, REPO

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def run_lines(text: str):
    """(line number, command line) for every line of every run: script."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        m = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if not m:
            continue
        if m.group(2) not in ("|", ">"):
            yield i + 1, m.group(2)
            continue
        key_indent = len(m.group(1))
        for j in range(i + 1, len(lines)):
            body = lines[j]
            if body.strip() and len(body) - len(body.lstrip()) <= key_indent:
                break
            yield j + 1, body.strip()


def test_run_scripts_start_no_line_with_a_negation():
    # bash -e ignores the status of a command negated with !, so such a check
    # fails its step only when it is the script's last command
    found = [(n, line) for n, line in run_lines(WORKFLOW.read_text())
             if line.startswith("! ")]
    assert found == []


def test_run_lines_reads_block_and_inline_scripts():
    text = ("steps:\n"
            "  - run: ! true\n"
            "  - name: x\n"
            "    run: |\n"
            "      ! grep -q Traceback err\n"
            "      if ! grep -q x y; then exit 1; fi\n"
            "\n"
            "        ! indented\n"
            "  - name: ! not a script\n")
    assert [n for n, line in run_lines(text) if line.startswith("! ")] == [2, 5, 8]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.file}:{m.old.split()[0]}")
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    # a refactor that moves or rewrites the mutated text orphans the entry
    counts = {str(f.relative_to(REPO)): f.read_text().count(mutant.old)
              for f in (REPO / "src").rglob("*.py")}
    assert {f: n for f, n in counts.items() if n} == {mutant.file: 1}
    assert mutant.new != mutant.old
    for node in mutant.tests:
        path, *names = node.split("::")
        text = (REPO / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(def|class) {name}\b", text, re.M), node
