"""Record the serial-path digests of the shipped seeds into ``reference.json``.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py --seeds 0-9

Each workload's whole grid is computed in-process through the serial path
(per-packet link, no pool, no cache) with the benchmark's pinned knobs, and
the SHA-256 of its rows is stored per (workload, seed).  ``run.py`` compares
the rows of every timed round with these digests, so record them only from a
commit whose outputs are known good: a later change that alters any row
fails the benchmark's gate.
"""

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import hostenv
    from perfbench.compare import seed_range

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args(argv)
    path = os.path.join(ROOT, "perfbench", "reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    for name in ("scenario-sweep", "session-follower", "tournament-pool", "network-mesh"):
        hostenv.pin_knobs(hostenv.WORKERS.get(name, 0))
        from perfbench.workloads import Workload, digest

        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                bench = Workload(name, seed, workdir)
                rows = bench.serial_rows(list(range(bench.points)))
            reference.setdefault(name, {})[str(seed)] = digest(rows)
            print(f"{name} seed {seed}: {reference[name][str(seed)]}", flush=True)
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
