"""Record the reference digests of every workload item in expected.json.

    python3 perfbench/record.py

Run from the repository root, on a commit whose results are known to be
right.  Every item must pass its own verdict before its digest is recorded.
The benchmark compares each measured item against this file, so a change
that alters a kernel rank, a relation count, a dh case count or a byte of a
campaign report is counted as a failed item.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (needs the package on the path)
from monomial.catalog import catalog_names  # noqa: E402


def main() -> None:
    workdir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    expected = {}
    for workload, keys in (
        ("lattice", workloads.lattice_keys()),
        ("tame", workloads.tame_keys()),
        ("campaign", workloads.campaign_keys()),
    ):
        digests = {}
        for item in workloads.BUILDERS[workload](0, dict.fromkeys(keys), workdir):
            ok, digest = item.run()
            if not ok:
                raise SystemExit(f"{workload} item {item.key} fails its verdict")
            digests[item.key] = digest
        expected[workload] = {key: digests[key] for key in keys}
    expected["ring"] = {name: workloads.ring_reference(name) for name in catalog_names()}
    with open(os.path.join(HERE, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=False)
        handle.write("\n")


if __name__ == "__main__":
    main()
