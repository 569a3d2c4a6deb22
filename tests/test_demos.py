"""The demos end quietly when their reader stops early, as `maxca` does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("lines", [0, 1])
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_closed_pipe_ends_quietly(demo, lines):
    # The reader closes after `lines` lines, as `| head -n` does. Each
    # print is its own write, so a demo still printing meets the closed
    # pipe; one that closes before any read always does and must exit
    # 141 (128 + SIGPIPE). Either way stderr stays empty.
    proc = subprocess.Popen(
        [sys.executable, str(demo)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    try:
        read = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert all(read)
    assert err == b""
    assert proc.returncode == 141 if lines == 0 else proc.returncode in (0, 141)
