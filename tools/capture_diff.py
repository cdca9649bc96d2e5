"""Compare two identity captures written by tools/capture.py.

    python tools/capture_diff.py OLD NEW [ADDED_KEY ...]

Both files must list the same operations in the same order, and every
SHA-256 digest of a chain's P and pi must be equal.  Every other value is
compared structurally: a float may differ, and for each key path whose
floats differ the largest absolute difference is printed.  A dict key that
only NEW has is allowed when it is named as an ADDED_KEY; for each such key
path with numeric values the largest absolute value is printed.  Any other
difference (a missing or unnamed key, a string, an int, a bool, a None, a
different length or type) is printed and makes the exit code 1; otherwise
it is 0.
"""

from __future__ import annotations

import ast
import math
import sys
from collections import defaultdict

NAMES = {"inf": math.inf, "nan": math.nan}


class _Constants(ast.NodeTransformer):
    """repr writes inf and nan as bare names; read them as floats."""

    def visit_Name(self, node):
        if node.id not in NAMES:
            raise ValueError(f"unexpected name {node.id!r}")
        return ast.copy_location(ast.Constant(NAMES[node.id]), node)


def _literal(text):
    tree = _Constants().visit(ast.parse(text, mode="eval"))
    return ast.literal_eval(tree)


def parse(line):
    """(workload, label, record, digests) of one capture line.  The digest
    list is the last bracket of the line, since it holds only tuples."""
    name, label, rest = line.rstrip("\n").split(" ", 2)
    cut = rest.rindex(" [")
    return name, label, _literal(rest[:cut]), _literal(rest[cut + 1:])


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
    elif isinstance(old, (list, tuple)):
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
        o_name, o_label, o_record, o_digests = parse(old_line)
        n_name, n_label, n_record, n_digests = parse(new_line)
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
