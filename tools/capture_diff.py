"""Compare two identity captures written by tools/capture.py.

    python tools/capture_diff.py OLD NEW [ADDED_KEY ...]

Each line is one JSON array, [workload, label, record, digests].  Both
files must list the same operations in the same order, and every SHA-256
digest of a chain's factor and pi must be equal.  Every other value is
compared structurally: a float may differ, and for each key path whose
floats differ the largest absolute difference is printed.  A dict key that
only NEW has is allowed when it is named as an ADDED_KEY; for each such key
path with numeric values the largest absolute value is printed.  Any other
difference (a missing or unnamed key, a string, an int, a bool, a None, a
different length or type) is printed and makes the exit code 1; otherwise
it is 0.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict


def compare(old, new, path, added, floats, faults):
    """Walk old and new together, adding float differences to `floats`
    (path -> largest |diff|), the numeric values of added keys to `floats`
    under "+path", and every other difference to `faults`."""
    if isinstance(old, float) and isinstance(new, float):
        if not (old == new or (math.isnan(old) and math.isnan(new))):
            floats[path] = max(floats[path], abs(old - new))
    elif type(old) is not type(new):
        faults.append(f"{path}: {old!r} -> {new!r}")
    elif isinstance(old, dict):
        for key in sorted(old.keys() - new.keys()):
            faults.append(f"{path}.{key}: removed")
        for key in sorted(new.keys() - old.keys()):
            if key not in added:
                faults.append(f"{path}.{key}: added")
            elif isinstance(new[key], (int, float)) and not isinstance(new[key], bool):
                floats[f"+{path}.{key}"] = max(floats[f"+{path}.{key}"], abs(new[key]))
        for key in old.keys() & new.keys():
            compare(old[key], new[key], f"{path}.{key}", added, floats, faults)
    elif isinstance(old, list):
        if len(old) != len(new):
            faults.append(f"{path}: length {len(old)} -> {len(new)}")
        else:
            for i, (a, b) in enumerate(zip(old, new)):
                compare(a, b, f"{path}[{i}]", added, floats, faults)
    elif old != new:
        faults.append(f"{path}: {old!r} -> {new!r}")


def main(old_path, new_path, added):
    with open(old_path) as fh:
        old_lines = fh.readlines()
    with open(new_path) as fh:
        new_lines = fh.readlines()
    if len(old_lines) != len(new_lines):
        print(f"line count {len(old_lines)} -> {len(new_lines)}")
        return 1
    floats, faults = defaultdict(float), []
    digests = identical = 0
    for old_line, new_line in zip(old_lines, new_lines):
        identical += old_line == new_line
        o_name, o_label, o_record, o_digests = json.loads(old_line)
        n_name, n_label, n_record, n_digests = json.loads(new_line)
        where = f"{o_name} {o_label}"
        if (o_name, o_label) != (n_name, n_label):
            faults.append(f"{where}: operation -> {n_name} {n_label}")
            continue
        if o_digests != n_digests:
            faults.append(f"{where}: chain digests differ")
        digests += sum(map(len, o_digests))
        # key paths are per workload, so each line aggregates over its operations
        compare(o_record, n_record, o_name, set(added), floats, faults)
    print(f"{len(old_lines)} lines, {identical} byte-identical; {digests} digests compared")
    for path in sorted(floats):
        if path.startswith("+"):
            print(f"added {path[1:]}: max |value| {floats[path]:.3g}")
        else:
            print(f"float {path}: max |diff| {floats[path]:.3g}")
    for fault in faults:
        print(f"DIFF {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__.splitlines()[2].strip())
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
