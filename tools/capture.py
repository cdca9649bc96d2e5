"""Identity capture: the deterministic output of every benchmark workload.

    python tools/capture.py OUT

Run from the root of a source checkout; the package is imported from src/
and the workloads from perfbench/workloads.py, which this script only reads.
For each of the four seed-11 workloads it runs every operation once and
writes one line per operation to OUT: the JSON array [workload, label,
record, digests] from json.dumps, which writes each float with its repr
digits (Infinity and NaN where it is not finite), so the file is exact.  The
record holds

- map-search, map-greedy and verify: the exit code, the JSON report without
  its "timing" and "kernel" (a temporary path) keys, and stderr;
- walk: both chains' chain_checks reports, the sampler's TV and its
  20,000-step trajectory;

and the digests are, for every chain the operation built with build_downup,
the SHA-256 of its factor.tobytes() and of its pi.tobytes(), since a
chain_checks report can hide a last-bit change in the chain.

Two checkouts give byte-identical files under `cmp` exactly when their
reports, chains and seeded walks agree bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from ndppmap import downup  # noqa: E402

import workloads  # noqa: E402

SEED = 11


def main(out_path):
    trajectories, chains = [], []
    sample_walk, build_downup = downup.sample_walk, downup.build_downup

    def recorded_walk(*args):
        traj = sample_walk(*args)
        trajectories.append(traj)
        return traj

    def recorded_chain(*args):
        C = build_downup(*args)
        chains.append(tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (C.factor, C.pi)))
        return C

    downup.sample_walk, downup.build_downup = recorded_walk, recorded_chain
    with tempfile.TemporaryDirectory() as workdir, open(out_path, "w") as out:
        for name, build in workloads.WORKLOADS.items():
            opdir = os.path.join(workdir, name)
            os.mkdir(opdir)
            for op in build(SEED, opdir).ops:
                outcome = op.run()
                if name == "walk":
                    record = (*outcome, trajectories.pop())
                else:
                    code, stdout, stderr = outcome
                    report = json.loads(stdout) if stdout else None
                    if report:
                        del report["timing"], report["kernel"]
                    record = (code, report, stderr)
                out.write(json.dumps([name, op.label, record, chains]) + "\n")
                chains.clear()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.splitlines()[2].strip())
    main(sys.argv[1])
