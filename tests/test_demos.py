"""Both demo scripts print exactly their golden transcripts.

Each demo runs through `fdq exec -f` from the repository root, as its
header says, with the EXPORT path moved to a temporary file; the path is
put back in the transcript before it is compared. To regenerate a golden
file after an intended output change, run

    PYTHONPATH=src python -m fdq exec -f demos/<name>.fdq > tests/golden/<name>.stdout

from the repository root and review the diff.
"""

import pathlib

import pytest

from fdq.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
EXPORT = "iowa-after.fdset"


@pytest.mark.parametrize("name", ["explore", "repair"])
def test_demo_prints_its_golden_transcript(name, tmp_path, capsys):
    text = (REPO / "demos" / f"{name}.fdq").read_text(encoding="utf-8")
    export = str(tmp_path / EXPORT)
    script = tmp_path / f"{name}.fdq"
    script.write_text(text.replace(EXPORT, export), encoding="utf-8")
    assert main(["exec", "--data-dir", str(REPO), "-f", str(script)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert captured.out.replace(export, EXPORT) == expected
