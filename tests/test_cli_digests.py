"""The numeric-diff report of scripts/cli_digests.py --compare, on synthetic run directories."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("_cli_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return root


ONE = 1.0
NEXT = float(np.nextafter(1.0, 2.0))
CSV = "lag,re,im\n-1,0.5,-0.25\n0,{},0.0\n1,0.5,0.25\n"
FILES = {
    "run/coarray.csv": CSV.format(repr(ONE)),
    "run/report.json": json.dumps({"nest": {"rms": 0.5, "within": 1.0}}),
    "run/stdout.txt": "done\n",
    "run/image.pgm": b"P5\n2 1\n255\n\x00\x10",
}


def test_identical_directories_report_nothing(tmp_path, digests):
    old = write_run(tmp_path / "old", FILES)
    new = write_run(tmp_path / "new", FILES)
    assert digests.compare_dirs(old, new) == []
    assert digests.main_digests(["--compare", str(old), str(new)]) == 0


def test_one_ulp_move_is_one_change(tmp_path, digests):
    old = write_run(tmp_path / "old", FILES)
    new = write_run(tmp_path / "new", {**FILES, "run/coarray.csv": CSV.format(repr(NEXT))})
    [(rel, row)] = digests.compare_dirs(old, new)
    assert rel == "run/coarray.csv"
    assert row.startswith("1 changed")
    assert "max rel 2.22e-16" in row


def test_dropped_row_is_structural(tmp_path, digests):
    old = write_run(tmp_path / "old", FILES)
    dropped = "".join(CSV.format(repr(ONE)).splitlines(keepends=True)[:-1])
    new = write_run(tmp_path / "new", {**FILES, "run/coarray.csv": dropped})
    assert digests.compare_dirs(old, new) == [("run/coarray.csv", "structural: rows 3 -> 2")]


@pytest.mark.parametrize(
    "rel, text, reason",
    [
        ("run/report.json", json.dumps({"nest": {"rms": 0.5}}), "structural: keys -['/nest/within']"),
        ("run/stdout.txt", "done twice\n", "structural: content"),
        ("run/image.pgm", b"P5\n1 1\n255\n\x00", "structural: header"),
    ],
    ids=["json_key", "stdout", "pgm_size"],
)
def test_shape_changes_are_structural(tmp_path, digests, rel, text, reason):
    old = write_run(tmp_path / "old", FILES)
    new = write_run(tmp_path / "new", {**FILES, rel: text})
    [(got_rel, row)] = digests.compare_dirs(old, new)
    assert got_rel == rel
    assert row.startswith(reason)


def test_file_on_one_side_only_is_structural(tmp_path, digests):
    old = write_run(tmp_path / "old", FILES)
    new = write_run(tmp_path / "new", {**FILES, "run/extra.csv": "a\n1\n"})
    assert digests.compare_dirs(old, new) == [("run/extra.csv", f"structural: only in {new}")]
    assert digests.main_digests(["--compare", str(old), str(new)]) == 1


def test_json_and_pgm_values_are_compared(tmp_path, digests):
    old = write_run(tmp_path / "old", FILES)
    new = write_run(
        tmp_path / "new",
        {
            **FILES,
            "run/report.json": json.dumps({"nest": {"rms": 0.75, "within": 1.0}}),
            "run/image.pgm": b"P5\n2 1\n255\n\x00\x12",
        },
    )
    assert dict(digests.compare_dirs(old, new)) == {
        "run/image.pgm": "1 changed, max abs 2, max rel 0.125",
        "run/report.json": "1 changed, max abs 0.25, max rel 0.5",
    }
