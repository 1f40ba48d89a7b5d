"""The golden CLI corpus: every command gives the bytes, exit code and last
stderr line recorded in tests/golden/<verb>.json.

Regenerate a corpus with `PYTHONPATH=src python tests/golden/make_corpus.py
<verb>`, and name every command whose expected result changed, with the
reason, in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location("make_corpus", GOLDEN / "make_corpus.py")
make_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_corpus)

COMMANDS = [
    command
    for path in sorted(GOLDEN.glob("*.json"))
    for command in json.loads(path.read_text(encoding="utf-8"))
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One directory for every command: run_command rewrites its inputs and removes its output."""
    return str(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("command", COMMANDS, ids=[c["id"] for c in COMMANDS])
def test_golden_command(command, workdir):
    got = make_corpus.run_command(command, workdir)
    want = {key: command[key] for key in ("sha256", "exit", "stderr_last")}
    assert got == want
