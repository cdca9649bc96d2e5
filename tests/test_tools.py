"""The identity tools: tools/capture.py writes the same bytes under any hash
seed, one line per benchmark operation in workload order, and
tools/capture_diff.py tells a moved float from a changed chain digest."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINES = 255  # operations of the four seed-11 workloads


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


@pytest.fixture(scope="module")
def sample(captures, tmp_path_factory):
    """The first line of each workload: the diff tool parses a walk line's
    20,000-step trajectories slowly, so the diff tests read four lines."""
    lines, seen = [], set()
    for line in captures[0].read_text().splitlines(keepends=True):
        if line.split(" ", 1)[0] not in seen:
            seen.add(line.split(" ", 1)[0])
            lines.append(line)
    path = tmp_path_factory.mktemp("sample") / "sample.txt"
    path.write_text("".join(lines))
    return path


def test_capture_is_byte_identical_across_hash_seeds(captures):
    first, second = (path.read_bytes() for path in captures)
    assert first == second
    names = [line.split(" ", 1)[0] for line in first.decode().splitlines()]
    assert len(names) == LINES
    order = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert list(dict.fromkeys(names)) == order
    assert names == sorted(names, key=order.index)  # each workload's lines together


def test_diff_of_a_capture_with_itself(sample):
    proc = run_tool("capture_diff.py", sample, sample)
    assert proc.returncode == 0
    assert proc.stdout == "4 lines, 4 byte-identical; 8 digests compared\n"


def test_diff_names_a_perturbed_float(sample, tmp_path):
    text = sample.read_text()
    value = re.search(r"'greedy_value': ([0-9.e+-]+)", text)
    moved = repr(float(value.group(1)) * (1 + 1e-12))
    path = tmp_path / "moved.txt"
    path.write_text(text[: value.start(1)] + moved + text[value.end(1):])
    proc = run_tool("capture_diff.py", sample, path)
    assert proc.returncode == 0, proc.stdout
    assert "4 lines, 3 byte-identical;" in proc.stdout
    assert "float map-search[1].greedy_value: max |diff|" in proc.stdout  # record[1], the report


def test_diff_fails_on_a_changed_digest(sample, tmp_path):
    lines = sample.read_text().splitlines(keepends=True)
    last = lines[-1]
    cut = last.rindex(" [")
    digest = re.search(r"[0-9a-f]{64}", last[cut:])
    at = cut + digest.start()
    lines[-1] = last[:at] + ("1" if last[at] == "0" else "0") + last[at + 1:]
    path = tmp_path / "digest.txt"
    path.write_text("".join(lines))
    proc = run_tool("capture_diff.py", sample, path)
    assert proc.returncode == 1
    assert "chain digests differ" in proc.stdout
