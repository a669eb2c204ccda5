"""Cold ``python -m spikemeter`` children, one at a time, timed and sized.

Imports only the standard library, so the launcher can be started before
the benchmark process loads numpy and grows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

LAUNCHER = Path(__file__).with_name("launcher.py")


@dataclass(frozen=True)
class VerbRun:
    """One verb's outcome; ``peak_rss_mb`` is 0 for in-process runs."""

    code: int
    seconds: float
    stdout: str
    stderr: str = ""
    peak_rss_mb: float = 0.0


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment with an absolute ``src`` first on PYTHONPATH.

    A relative entry would stop resolving once the child runs from another
    working directory.
    """
    env = dict(os.environ)
    env.pop("SPIKEMETER_STORE", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src.resolve()) + (os.pathsep + rest if rest else "")
    return env


class Launcher:
    """A small long-lived process that starts each child (see launcher.py)."""

    def __init__(self, src: Path) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(src),
        )

    def run_python(self, argv: list[str], cwd: Path) -> VerbRun:
        self._proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("child launcher exited")
        reply = json.loads(line)
        return VerbRun(
            code=reply["code"],
            seconds=reply["seconds"],
            stdout=(cwd / ".child.stdout").read_text(),
            stderr=(cwd / ".child.stderr").read_text(),
            peak_rss_mb=reply["maxrss_kb"] / 1024.0,  # Linux reports KiB
        )

    def run_verb(self, args: list[str], cwd: Path) -> VerbRun:
        return self.run_python(["-m", "spikemeter", *args], cwd)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
