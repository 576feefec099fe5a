"""Replay the CLI on the shipped spec files against committed stdout.

``tests/golden/<spec>.<output>`` holds the stdout of each command in
``COMMANDS`` on ``codes/<spec>.code``; ``syndrome`` runs on the codeword that
``encode`` printed.  Every output is canonical, so a change that keeps the
answers keeps these files byte for byte.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from groupcodes.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SPECS = sorted(p.stem for p in (ROOT / "codes").glob("*.code"))
COMMANDS = {
    "analyze.json": ["analyze", "{spec}", "--json"],
    "analyze-cut3.json": ["analyze", "{spec}", "--cut", "3", "--json"],
    "analyze-edge.json": ["analyze", "{spec}", "--cut", "5", "--margin", "3",
                          "--json"],
    "dual.code": ["dual", "{spec}"],
    "encode.json": ["encode", "{spec}", "--random", "7", "--json"],
    "syndrome.json": ["syndrome", "{spec}", "--word", "{word}", "--json"],
}


def _run(spec: str, output: str, word: Path) -> str:
    argv = [a.format(spec=ROOT / "codes" / f"{spec}.code", word=word)
            for a in COMMANDS[output]]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _write_word(spec: str, word: Path) -> None:
    encoded = json.loads((GOLDEN / f"{spec}.encode.json").read_text())
    word.write_text(json.dumps(encoded["codeword"]))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("output", list(COMMANDS))
def test_cli_output_matches_golden(spec, output, tmp_path):
    word = tmp_path / "word.json"
    _write_word(spec, word)
    assert _run(spec, output, word) == (GOLDEN / f"{spec}.{output}").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        word = Path(tmp) / "word.json"
        for spec in SPECS:
            for output in COMMANDS:  # encode comes before syndrome
                if output == "syndrome.json":
                    _write_word(spec, word)
                (GOLDEN / f"{spec}.{output}").write_text(_run(spec, output, word))
