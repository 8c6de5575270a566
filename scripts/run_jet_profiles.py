#!/usr/bin/env python3
"""Cross-check the classifier against the jet-scheme oracle.

For log canonical fixtures the contact-locus formula gives, at each jet
level m, the value height - m; the infimum over all levels is the minimal
log discrepancy. The table below shows the oracle values next to the
classifier's verdict: every level bounds the mld from above, and the bound
is attained at a level governed by the witness order.  Exits 1 when any
row prints MISMATCH (a level below the classifier's mld).
"""

import sys
import time

sys.path.insert(0, "src")

from slchyp import RATIONALS, classify_mld, mld_profile, parse_poly, prime_field

CASES = [
    ("x", 0, 3),
    ("x*y", 0, 3),
    ("x^2+y^2", 0, 3),
    ("x^2+y^2*z", 5, 3),
    ("x^2+y^3+x*z^2", 5, 3),
    ("x^2+y^3+z^5", 7, 2),
    ("x*y*z", 3, 3),
    ("x^2+y^3+z^5", 7, 7),
]


def main():
    started = time.monotonic()
    mismatches = 0
    print(f"{'polynomial':18} {'p':>2} {'classifier':>10}  contact values by level")
    print("-" * 70)
    for text, p, m_max in CASES:
        ctx = RATIONALS if p == 0 else prime_field(p)
        f = parse_poly(text, ctx)
        verdict = classify_mld(f, p)
        prof = mld_profile(f, m_max, expected_mld=verdict.mld.value)
        entries = "  ".join(f"m={m}:{v}" for m, v in prof.profile.contact_entries())
        marker = "ok" if prof.consistent_lower_bound else "MISMATCH"
        if not prof.consistent_lower_bound:
            mismatches += 1
        attained = "min attained" if prof.matches_expected else "upper bound only"
        print(f"{text:18} {p:>2} {str(verdict.mld):>10}  {entries}   [{marker}; {attained}]")
    print("-" * 70)
    print(f"done in {time.monotonic() - started:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
