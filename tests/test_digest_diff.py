import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "digest_diff.py"
spec = importlib.util.spec_from_file_location("digest_diff", TOOL)
digest_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest_diff)

GRID = {
    "generate/c2/frames": "g",
    "flow/f1.0/c2": "f",
    "resize/f1.0/s4/c2": "r",
    "warp/f1.0/s4/c2/l1.0": "w",
    "sweep/f1.0/s4/c2": "s",
    "run/baseline/sequential/f1.0/s4/c2/a0.2_l1.0": "b",
    "run/baseline/parallel/f1.0/s4/c2/a0.2_l1.0": "b",
    "run/mcma/sequential/f1.0/s4/c2/a0.2_l1.0": "m",
    "run/mcma/parallel/f1.0/s4/c2/a0.2_l1.0": "m",
    "run/mcma/sequential/f1.0/s4/c2/a1.0_l2.0": "one",
    "run/mcma/parallel/f1.0/s4/c2/a1.0_l2.0": "one",
    "run/mcma/sequential/f1.0/s4/c2/a0.3_l0.0": "zero",
    "run/mcma/parallel/f1.0/s4/c2/a0.3_l0.0": "zero",
}


def diff(tmp_path, capsys, changes=()):
    """digest_diff's exit status and output on GRID and GRID with
    ``changes``."""
    change = {**GRID, **dict(changes)}
    paths = []
    for name, grid in (("parent", GRID), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(grid))
    status = digest_diff.main([str(p) for p in paths])
    return status, capsys.readouterr()


def test_equal_grids_pass(tmp_path, capsys):
    status, out = diff(tmp_path, capsys)
    assert status == 0
    assert "total: 0 of 13 differ" in out.out


def test_flow_entries_may_differ(tmp_path, capsys):
    status, out = diff(tmp_path, capsys, {
        "flow/f1.0/c2": "F", "warp/f1.0/s4/c2/l1.0": "W",
        "run/mcma/sequential/f1.0/s4/c2/a0.2_l1.0": "M",
        "run/mcma/parallel/f1.0/s4/c2/a0.2_l1.0": "M"})
    assert status == 0
    assert "flow: 1 of 1 differ" in out.out
    assert "run/mcma: 2 of 6 differ" in out.out
    assert "total: 4 of 13 differ" in out.out


@pytest.mark.parametrize("key", [
    "generate/c2/frames",
    "run/baseline/sequential/f1.0/s4/c2/a0.2_l1.0",
    "run/mcma/sequential/f1.0/s4/c2/a1.0_l2.0",
    "run/mcma/parallel/f1.0/s4/c2/a0.3_l0.0",
])
def test_flow_free_entry_fails(tmp_path, capsys, key):
    status, out = diff(tmp_path, capsys, {key: "x"})
    assert status == 1
    assert key in out.err


def test_executors_that_differ_fail(tmp_path, capsys):
    status, out = diff(tmp_path, capsys, {
        "run/mcma/parallel/f1.0/s4/c2/a0.2_l1.0": "M"})
    assert status == 1
    assert "executors differ in change" in out.err
