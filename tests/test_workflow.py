"""The CI workflow's shell, read as text: GitHub runs each step under
``bash -eo pipefail``, and bash -e skips a failure anywhere in an ``&&``
list but at its last command, so ``test "$code" = 2 && grep ...`` passes
a wrong exit code.  No ``run:`` line may put a command after ``test`` or
``[`` and ``&&``; the console-script step checks exit codes with its one
``exits`` function instead, whose behaviour under ``bash -e`` is tested
here too.  Neither -e nor pipefail sees the exit code of a command inside
a process substitution ``<(...)`` either, so no ``run:`` line may run
``grassgb`` inside one: ``diff <(grassgb ...) <(echo ...)`` passes a
``grassgb`` that prints the right text and then fails.  Nor do they see
one inside a command substitution ``$(...)`` that is an argument, as of
``test``: ``test "$(grassgb ... | tail -n 1)" = ...`` passes a
``grassgb`` that fails after its last line.  So ``grassgb`` runs under
``exits``, and ``test`` reads the file it wrote."""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# test or [ in command position, then && later on the line
TEST_THEN_AND = re.compile(r"(?:^|[;&|({]|\b(?:do|then|else)\b)\s*(?:test|\[)\s.*&&")

# the console script as a command inside <(...), before any nested paren
GRASSGB_IN_SUBSTITUTION = re.compile(r"<\((?:[^()]*[\s;|&])?grassgb(?![\w.])")

# the console script in command position inside $(...): after the opener,
# whitespace or ; | &, past only words and whole quoted strings with no
# paren, so a grassgb inside a quoted python -c program is not one
GRASSGB_IN_COMMAND_SUBSTITUTION = re.compile(
    r"""\$\((?:[^()'"]|"[^"()]*"|'[^'()]*')*?(?<=[\s;|&(])grassgb(?![\w.])"""
)


def _run_lines(text):
    """(line number, line) of every line of every ``run:`` value: the
    line itself when the value is inline, else its block's lines, those
    indented deeper than the key."""
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        key = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if not key:
            continue
        indent, value = len(key.group(1)), key.group(2)
        if value not in ("|", ">"):
            yield number, value
            continue
        for inner, body in enumerate(lines[number:], start=number + 1):
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            yield inner, body


def test_no_run_line_puts_a_command_after_test_and():
    assert TEST_THEN_AND.search('code=1; test "$code" = 2 && echo x')
    assert TEST_THEN_AND.search("  [ -s out ] && diff out expected")
    assert not TEST_THEN_AND.search('test "$(wc -l < err)" = 1; grep -q x err')
    lines = list(_run_lines(WORKFLOW.read_text()))
    offenders = [f"{n}: {line.strip()}" for n, line in lines if TEST_THEN_AND.search(line)]
    assert not offenders, "\n".join(offenders)


def test_no_run_line_runs_grassgb_inside_a_process_substitution():
    found = GRASSGB_IN_SUBSTITUTION.search
    assert found("diff <(timeout 30 grassgb verify -k 5 -n 8) <(echo OK)")
    assert found("diff only.out <(grassgb generate -k 5 -n 8 | grep -F x)")
    assert not found("exits 0 grassgb dual -k 3 -r 200; diff out <(echo x)")
    assert not found('diff out <(python -c "from grassgb.f2poly import parse")')
    lines = list(_run_lines(WORKFLOW.read_text()))
    offenders = [f"{n}: {line.strip()}" for n, line in lines if found(line)]
    assert not offenders, "\n".join(offenders)


def test_no_run_line_runs_grassgb_inside_a_command_substitution():
    found = GRASSGB_IN_COMMAND_SUBSTITUTION.search
    assert found('test "$(grassgb basis -k 3 -n 4 | tail -n 1)" = "count: 35"')
    assert found('test "$(timeout 60 grassgb basis -k 4 -n 36 | tail -n 1)" = "count: 91390"')
    assert found('x=$(cd "$dir"; grassgb dual -k 2 -r 4)')
    assert not found('exits 0 grassgb basis -k 3 -n 4; test "$(tail -n 1 out)" = "count: 35"')
    assert not found("""src=$(python -c 'import grassgb, os; print(os.path.dirname(grassgb.__file__))')""")
    assert not found('test "$(python -c "from grassgb.steenrod import sq; print(sq(1, f))")" = "w1^4"')
    assert not found("""x=$(python -c 'import grassgb')""")
    lines = list(_run_lines(WORKFLOW.read_text()))
    offenders = [f"{n}: {line.strip()}" for n, line in lines if found(line)]
    assert not offenders, "\n".join(offenders)


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
@pytest.mark.parametrize(
    "command,passes",
    [
        ("exits 2 sh -c 'echo x >&2; exit 2'; grep -qx x err", True),
        ("exits 0 sh -c 'echo OK'; diff out <(echo OK)", True),
        ("exits 2 sh -c 'exit 1'", False),
        ("exits 1 sh -c 'echo OK; exit 0'", False),
        ("exits 2 sh -c 'exit 2'; grep -q x err", False),
        # the right text, then a failure, which diff <(...) <(echo OK) passes
        ("exits 0 sh -c 'echo OK; exit 1'; diff out <(echo OK)", False),
    ],
    ids=["guard", "stdout", "exit-1-for-2", "exit-0-for-1", "stderr-checked", "right-text-exit-1"],
)
def test_exits_fails_the_step_on_a_wrong_exit_code(tmp_path, command, passes):
    # the step's own definition of exits, run as GitHub runs the step
    lines = [line.strip() for _, line in _run_lines(WORKFLOW.read_text())]
    (definition,) = [line for line in lines if line.startswith("exits() {")]
    proc = subprocess.run(
        ["bash", "-eo", "pipefail", "-c", f"{definition}\n{command}\necho reached"],
        cwd=tmp_path, capture_output=True, text=True, timeout=30,
    )
    reached = proc.returncode == 0 and proc.stdout == "reached\n"
    assert reached == passes, (proc.returncode, proc.stdout, proc.stderr)
