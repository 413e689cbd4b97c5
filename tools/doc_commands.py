"""Check that every command and import the docs show still works.

Reads the fenced code blocks of ``README.md`` and ``docs/*.md``.  Every
``repro ...``, ``python -m repro ...`` or ``PYTHONPATH=src python -m
repro ...`` line (``\\`` continuations joined, a ``# ...`` comment and a
trailing ``&`` stripped) goes through ``repro.cli.build_parser()
.parse_args`` -- parsed, never run -- and every ``make <target>`` must
name a target of the Makefile.  Every ``from repro... import ...`` line
of a ``python`` fence is run alone in a subprocess (the rest of the
snippet is not).  A renamed flag, a deleted option, a removed make
target or a deleted public name in a documented snippet is reported as
``file:line: message``.

    python tools/doc_commands.py

Exit status: 0 when every command parses and every import imports, 1
when one does not.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import build_parser  # noqa: E402

_ENV_ASSIGNMENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*=")
_COMMAND = re.compile(
    r"\s*(?:[A-Za-z_][A-Za-z0-9_]*=\S*\s+)*(?:repro|python3? -m repro|make)(?:\s|$)"
)
_MAKE_TARGET = re.compile(r"^([A-Za-z0-9_][A-Za-z0-9_.-]*)\s*:(?!=)", re.MULTILINE)
_IMPORT = re.compile(r"\s*from repro(\.\w+)* import ")


def fenced_commands(path: Path) -> Iterator[tuple[int, str, str]]:
    """``(line number, command, fence language)`` for each logical line
    inside a fence."""
    in_fence = False
    pending: list[str] = []
    start = 0
    language = ""
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip().startswith("```"):
            in_fence = not in_fence
            language = line.strip()[3:].strip()
            pending = []
            continue
        if not in_fence:
            continue
        if not pending:
            start = number
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            pending.append(stripped[:-1])
            continue
        pending.append(stripped)
        yield start, " ".join(pending), language
        pending = []


def command_argv(command: str) -> tuple[str, list[str]] | None:
    """``("make", words)`` or ``("repro", argv)`` for a line this tool
    checks, None for any other line."""
    if not _COMMAND.match(command):
        return None
    tokens = shlex.split(command, comments=True)
    while _ENV_ASSIGNMENT.match(tokens[0]):
        tokens.pop(0)
    if tokens[-1] == "&":
        tokens.pop()
    if tokens[0] == "make":
        return "make", tokens[1:]
    return "repro", tokens[1:] if tokens[0] == "repro" else tokens[3:]


def problem(kind: str, argv: list[str], targets: set[str]) -> str | None:
    """Why a documented command fails, or None when it parses."""
    if kind == "make":
        missing = [
            word for word in argv
            if not word.startswith("-") and "=" not in word and word not in targets
        ]
        return f"make: no target {', '.join(missing)} in the Makefile" if missing else None
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):  # --help exits 0
            lines = stderr.getvalue().strip().splitlines()
            return lines[-1] if lines else f"exit status {exc.code}"
    return None


def import_problem(statement: str) -> str | None:
    """Why a documented import fails, or None when it imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", statement.strip()],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if result.returncode == 0:
        return None
    lines = result.stderr.strip().splitlines()
    return lines[-1] if lines else f"exit status {result.returncode}"


def main() -> int:
    targets = set(_MAKE_TARGET.findall((ROOT / "Makefile").read_text()))
    failures = checked = 0
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for number, line, language in fenced_commands(path):
            if language == "python" and _IMPORT.match(line):
                command, reason = line, import_problem(line)
            else:
                try:
                    command = command_argv(line)
                    reason = None if command is None else problem(*command, targets)
                except ValueError as exc:  # unbalanced quotes
                    command, reason = line, f"cannot split {line.strip()!r}: {exc}"
            if command is None:
                continue
            checked += 1
            if reason is not None:
                failures += 1
                print(f"{path.relative_to(ROOT)}:{number}: {reason}")
    print(f"{checked} documented commands and imports checked, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
