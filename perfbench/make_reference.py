#!/usr/bin/env python3
"""Write perfbench/reference.json, the expected outputs of the workloads.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted: later runs count an
output that differs from this file as a failed operation. The campaign
digests apply at campaign seed 0: at every seed for pair_campaign, whose
campaign seed is fixed, and at the default seed for catalogue_campaign.
The kappa digests apply at every seed, since a seed only translates each
C on the right; the script checks that two seeds give the same digests.
Each pass must also pass the benchmark's
own checks, and the catalogue campaign's record stream must be the same
at jobs=2 as at the workload's jobs=1.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import run


def one_pass(wl, scratch: Path):
    res = wl.run_pass(scratch)
    bad, problems = wl.check_pass(res, None, first=True)
    if bad or problems:
        raise SystemExit(f"error: {wl.name} fails its own checks: {problems[:5]}")
    return res


def main() -> int:
    workloads = run.import_workloads()
    reference = {}
    run.RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=run.RESULTS))
    try:
        for name in run.WORKLOADS:
            wl = workloads.make(name, run.DEFAULT_SEED, smoke=False)
            reference[name] = wl.reference_entry(one_pass(wl, scratch))
        other = workloads.make("kappa_grid", run.DEFAULT_SEED + 1, smoke=False)
        if other.reference_entry(one_pass(other, scratch)) != reference["kappa_grid"]:
            raise SystemExit("error: kappa_grid outputs depend on the seed")
        wl = workloads.make("catalogue_campaign", run.DEFAULT_SEED, smoke=False)
        wl.campaign = dataclasses.replace(wl.campaign, jobs=2)
        threaded = wl.reference_entry(one_pass(wl, scratch))
        if threaded != reference["catalogue_campaign"]:
            raise SystemExit("error: catalogue_campaign records differ between jobs=1 and jobs=2")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
