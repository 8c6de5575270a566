#!/usr/bin/env python3
"""Two sha256 digests over the canonical CLI reports of the benchmark's operations.

Reports: takes one pass of each of the four perfbench workloads (their
generators are read, not changed), keeps the distinct (polynomial,
characteristic) inputs, and runs `slchyp mld` and `slchyp slc` on each
in-process; the digest covers those 1,668 reports and their exit codes.

Jet profiles: runs `slchyp jet-profile --m L --expected-mld M` on each of the
50 operations of one oracle_certify pass, with the level and mld the workload
expects, and digests those reports and exit codes.

One byte changed in any report changes its digest.  The operations of a pass
do not depend on the seed, only their order does.

    python3 scripts/report_digest.py

Exits 0 when both digests match tests/golden/report_digest.sha256 and
tests/golden/jet_profile_digest.sha256, 1 when either does not.  A change that
alters reports on purpose writes the printed digest into its file.
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
JET_DIGEST_FILE = ROOT / "tests" / "golden" / "jet_profile_digest.sha256"
SEED = 1


def distinct_inputs():
    """The distinct (text, characteristic) pairs of one pass of every workload."""
    inputs = set()
    for name in workloads.WORKLOADS:
        batch = next(workloads.generate(name, SEED))
        inputs.update((op.text, op.p) for op in batch)
    return sorted(inputs, key=lambda tp: (tp[1], tp[0]))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def digest():
    h = hashlib.sha256()
    reports = 0
    for text, p in distinct_inputs():
        for command in ("mld", "slc"):
            code, out = _run([command, "--char", str(p), "--poly", text])
            h.update(f"{command}\t{p}\t{text}\t{code}\t{out}".encode())
            reports += 1
    return h.hexdigest(), reports


def jet_profile_digest():
    h = hashlib.sha256()
    batch = next(workloads.generate("oracle_certify", SEED))
    ops = sorted((op.p, op.text, op.expect) for op in batch)
    for p, text, (mld, level) in ops:
        argv = ["jet-profile", "--char", str(p), "--poly", text,
                "--m", str(level), "--expected-mld", str(mld)]
        code, out = _run(argv)
        h.update(("\t".join(argv) + f"\t{code}\t{out}").encode())
    return h.hexdigest(), len(ops)


def main():
    failed = 0
    for compute, path, what in ((digest, DIGEST_FILE, "reports"),
                                (jet_profile_digest, JET_DIGEST_FILE, "jet profiles")):
        value, count = compute()
        print(f"{value}  ({count} {what})")
        recorded = path.read_text().strip()
        if value != recorded:
            print(f"MISMATCH: recorded {recorded}")
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
