"""Child-process bridge to external gtools binaries (geng, shortg).

Binaries are found in the GTOOLS_DIR directory, then on PATH.  A missing
binary raises ToolUnavailable, which callers (and the test suite) treat as
a skip condition, never a failure.  Every tool runs through exec_stream,
which spools the child's stdin and stderr through temporary files.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from dataclasses import dataclass
from tempfile import TemporaryFile
from typing import Iterable, Iterator

GTOOLS_DIR_ENV = "GTOOLS_DIR"


class ToolUnavailable(Exception):
    """The requested external binary cannot be found."""


class ToolError(RuntimeError):
    """The child process failed; carries its captured stderr."""

    def __init__(self, message: str, stderr: str = ""):
        super().__init__(message + (f"\nstderr:\n{stderr}" if stderr else ""))
        self.stderr = stderr


@dataclass(frozen=True)
class ToolSpec:
    command: str
    args: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.command:
            raise ValueError("empty command name")
        for a in self.args:
            if "\n" in a:
                raise ValueError("argument contains a newline")


def find_binary(spec: ToolSpec) -> str:
    env_dir = os.environ.get(GTOOLS_DIR_ENV)
    if env_dir:
        path = os.path.join(env_dir, spec.command)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    found = shutil.which(spec.command)
    if found:
        return found
    raise ToolUnavailable(f"cannot find executable {spec.command!r}")


def exec_stream(spec: ToolSpec,
                input_lines: Iterable[str] = ()) -> Iterator[str]:
    """Yield the tool's stdout lines to EOF.  Its stdin is a temporary file of
    input_lines, each newline-terminated (empty without input); its stderr
    is another, so only stdout is a pipe.  Lines end at universal newlines,
    not at every str.splitlines break.  Closing early kills the child; a
    nonzero exit after EOF raises ToolError with the spooled stderr."""
    binary = find_binary(spec)
    with TemporaryFile("w+") as stdin, TemporaryFile("w+") as stderr:
        stdin.writelines(line + "\n" for line in input_lines)
        stdin.seek(0)
        proc = subprocess.Popen([binary, *spec.args], text=True, stdin=stdin,
                                stdout=subprocess.PIPE, stderr=stderr)
        with proc.stdout:
            try:
                for line in proc.stdout:
                    yield line.rstrip("\n")
            except GeneratorExit:
                proc.kill()
                proc.wait()
                raise
        if proc.wait() != 0:
            stderr.seek(0)
            raise ToolError(f"{spec.command} exited with status "
                            f"{proc.returncode}", stderr.read())
