"""Record the reference outputs that check.py compares against.

    python3 perfbench/record.py [workload ...]

For each workload it runs the first cycle of the pinned seed (and the
heights anchors) and writes reference/<workload>.json, keyed by request.
For catalog it first records the hit catalogue, search-quads up to
gen.HITS_MAX_SIDE, and then the quad and curve follow-ups of every hit,
so that every search and follow-up of any seed has a reference.  Record
only from a commit whose outputs are trusted; every output must first
pass the oracles.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import gen
import run


def execute_checked(bqec, workload: str, requests) -> list[run.Result]:
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    try:
        runner = run.Runner(bqec, workdir)
        runner.prepare(requests)
        results = [runner.execute(req) for req in requests]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [(res.req.key, problems) for res, problems in run.check_all(results, None) if problems]
    if failures:
        raise SystemExit(f"{workload}: outputs fail the oracles, not recording: {failures[:3]}")
    return results


def record(bqec, workload: str) -> Path:
    path = gen.REFERENCE / f"{workload}.json"
    data = {"seed": gen.DEFAULT_SEED, "outputs": {}}
    requests = []
    if workload == "catalog":
        (res,) = execute_checked(bqec, workload, [gen.search_request(gen.HITS_MAX_SIDE)])
        data.update(hits=res.stdout, hits_max_side=gen.HITS_MAX_SIDE)
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")  # gen reads the hits
        for obj in check.parse_lines(res.stdout):
            requests += gen.hit_requests(obj["sides"])
    if workload == "heights":
        requests += [gen.Request(argv[0], argv) for argv in gen.ANCHORS]
    requests += [req for req in gen.generate(workload, gen.DEFAULT_SEED) if req.kind != "search"]
    results = execute_checked(bqec, workload, requests)
    data["outputs"] = {res.req.key: {"rc": res.rc, "stdout": res.stdout} for res in results}
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv: list[str]) -> int:
    run.OUT.mkdir(exist_ok=True)
    gen.REFERENCE.mkdir(exist_ok=True)
    bqec = run.import_bqec()
    for workload in argv or gen.WORKLOADS:
        print(f"recorded {record(bqec, workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
