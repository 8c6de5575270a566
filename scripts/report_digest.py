#!/usr/bin/env python3
"""One sha256 over the canonical CLI reports of the benchmark's operations.

Takes one pass of each of the four perfbench workloads (their generators are
read, not changed), keeps the distinct (polynomial, characteristic) inputs,
and runs `slchyp mld` and `slchyp slc` on each in-process.  The digest covers
every exit code and every canonical report, so one byte changed in any of
those 1,668 reports changes it.  The operations of a pass do not depend on
the seed, only their order does.

    python3 scripts/report_digest.py

Exits 0 when the digest matches tests/golden/report_digest.sha256, 1 when it
does not.  A change that alters reports on purpose writes the printed digest
into that file.
"""

import contextlib
import hashlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench's generators)
from slchyp import cli  # noqa: E402

DIGEST_FILE = ROOT / "tests" / "golden" / "report_digest.sha256"
SEED = 1


def distinct_inputs():
    """The distinct (text, characteristic) pairs of one pass of every workload."""
    inputs = set()
    for name in workloads.WORKLOADS:
        batch = next(workloads.generate(name, SEED))
        inputs.update((op.text, op.p) for op in batch)
    return sorted(inputs, key=lambda tp: (tp[1], tp[0]))


def digest():
    h = hashlib.sha256()
    reports = 0
    for text, p in distinct_inputs():
        for command in ("mld", "slc"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run([command, "--char", str(p), "--poly", text])
            h.update(f"{command}\t{p}\t{text}\t{code}\t{out.getvalue()}".encode())
            reports += 1
    return h.hexdigest(), reports


def main():
    value, reports = digest()
    print(f"{value}  ({reports} reports)")
    recorded = DIGEST_FILE.read_text().strip()
    if value != recorded:
        print(f"MISMATCH: recorded {recorded}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
