"""The identity tools: tools/capture.py writes the same bytes under any hash
seed, one line per benchmark operation in workload order, and
tools/capture_diff.py tells a moved float from a changed chain digest."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINES = 255  # operations of the four seed-11 workloads
DIGESTS = 60  # a factor and a pi digest for each of their 30 chains


def run_tool(script, *args, hashseed="0"):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), *map(str, args)],
        capture_output=True, text=True, cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": hashseed},
    )


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    out = tmp_path_factory.mktemp("capture")
    paths = []
    for seed in ("1", "2"):
        path = out / f"hashseed{seed}.txt"
        proc = run_tool("capture.py", path, hashseed=seed)
        assert proc.returncode == 0, proc.stderr
        paths.append(path)
    return paths


def rewrite(path, tmp_path, name, edit):
    """A copy of the capture at `path` in which edit(entry) changed the first
    line's [workload, label, record, digests] for which it returns true,
    re-encoded as capture.py writes it."""
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        entry = json.loads(line)
        if edit(entry):
            lines[i] = json.dumps(entry) + "\n"
            break
    else:
        raise AssertionError("no line to edit")
    out = tmp_path / name
    out.write_text("".join(lines))
    return out


def test_capture_is_byte_identical_across_hash_seeds(captures):
    first, second = (path.read_bytes() for path in captures)
    assert first == second
    lines = first.decode().splitlines()
    assert all(json.dumps(json.loads(line)) == line for line in lines)  # one JSON array a line
    names = [json.loads(line)[0] for line in lines]
    assert len(names) == LINES
    order = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert list(dict.fromkeys(names)) == order
    assert names == sorted(names, key=order.index)  # each workload's lines together


def test_diff_of_a_capture_with_itself(captures):
    proc = run_tool("capture_diff.py", captures[0], captures[0])
    assert proc.returncode == 0
    assert proc.stdout == f"{LINES} lines, {LINES} byte-identical; {DIGESTS} digests compared\n"


def test_diff_names_a_perturbed_float(captures, tmp_path):
    def edit(entry):
        entry[2][1]["greedy_value"] *= 1 + 1e-12  # record[1], the report
        return True

    path = rewrite(captures[0], tmp_path, "moved.txt", edit)
    proc = run_tool("capture_diff.py", captures[0], path)
    assert proc.returncode == 0, proc.stdout
    assert f"{LINES} lines, {LINES - 1} byte-identical;" in proc.stdout
    assert "float map-search[1].greedy_value: max |diff|" in proc.stdout


def test_diff_names_a_perturbed_walk_float(captures, tmp_path):
    def edit(entry):
        if entry[0] != "walk":
            return False
        entry[2][0][1]["gap"] *= 1 + 1e-12  # the l = k - 2 chain's checks
        return True

    path = rewrite(captures[0], tmp_path, "walk.txt", edit)
    proc = run_tool("capture_diff.py", captures[0], path)
    assert proc.returncode == 0, proc.stdout
    assert f"{LINES} lines, {LINES - 1} byte-identical;" in proc.stdout
    assert "float walk[0][1].gap: max |diff|" in proc.stdout
    assert "DIFF" not in proc.stdout


def test_diff_fails_on_a_changed_digest(captures, tmp_path):
    def edit(entry):
        if not entry[3]:
            return False
        digest = entry[3][-1][0]
        entry[3][-1][0] = ("1" if digest[0] == "0" else "0") + digest[1:]
        return True

    path = rewrite(captures[0], tmp_path, "digest.txt", edit)
    proc = run_tool("capture_diff.py", captures[0], path)
    assert proc.returncode == 1
    assert "chain digests differ" in proc.stdout
