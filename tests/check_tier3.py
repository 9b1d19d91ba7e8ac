"""Opt-in byte-identity check of the third reference tier, on two axes.

    python3 tests/check_tier3.py

Runs ``rbcm crosscheck --sweep --primes 2,3,5,7`` twice, each in a fresh
interpreter with ``RBCM_ORACLE_BUDGET`` set to its order bound:

* ``--max-order 2401 --max-n 8`` (1,797 instances), against
  ``tests/goldens/tier3-order2401-report.json``;
* ``--max-order 243 --max-n 18`` (1,066 instances, 592 of them with n > 8,
  which no other golden reaches), against ``tests/goldens/tier3-n18-report.json``.

Together they take a few tens of seconds on one core.  For each axis it
prints the instances that differ from the golden and every instance whose
``ok`` reads false, as ``check_tier2.py`` does.  Exit status 0 only when
both reports are identical to their goldens.

The file name keeps pytest from collecting it: the tier stays out of the
default test run.
"""

from __future__ import annotations

import sys

from check_tier2 import ROOT, check

SWEEP = ["crosscheck", "--sweep", "--primes", "2,3,5,7"]
AXES = (
    ("tier-3 (order <= 2401, n <= 8)", [*SWEEP, "--max-order", "2401", "--max-n", "8"], "2401",
     ROOT / "tests" / "goldens" / "tier3-order2401-report.json"),
    ("tier-3 (order <= 243, n <= 18)", [*SWEEP, "--max-order", "243", "--max-n", "18"], "243",
     ROOT / "tests" / "goldens" / "tier3-n18-report.json"),
)


def main() -> int:
    results = [check(*axis) for axis in AXES]  # every axis runs, whatever the first gives
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
