"""Verdict accounting: report digests and the checks each suite call failed.

A suite call's checks all count as failed when its digest differs from the
recorded one, when it raised, or when it reported zero checks (a vacuous
pass). Otherwise each failure message it reports is one failed check, except
for the documented outcomes of the experimental order cases: at q = 4 and 9
an order dividing p*q, and at q = 8 an order dividing p^2*q, is reported by
the suite but is not a failure. A solvability witness that is not found is an
outcome, not a failure.
"""

from __future__ import annotations

import hashlib
import json
import re

# q -> the documented bound that every zero-sum order divides (experimental q)
ORDER_SHAPE = {4: 2 * 4, 9: 3 * 9, 8: 2 * 2 * 8}

_EXCEEDS = re.compile(r"^sample \d+: zero-sum word '[aAbB]*' has order (\d+), not a divisor of \d+$")


def digest(report) -> str:
    """sha256 of the report's record as sorted-key JSON; wall time is not in it."""
    text = json.dumps(report.to_record(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def checks_of(report) -> int:
    return report.trees_checked if hasattr(report, "trees_checked") else report.checks


def failed_checks(suite: str, report) -> list[str]:
    """Messages for the failed checks of one finished call, zero-check rule included."""
    checks = checks_of(report)
    if checks <= 0:
        return [f"reported {checks} checks"]
    if suite == "solvable":
        if report.passed:
            return []
        return [f"depth-{report.k} trees not all trivial"] * checks
    if suite == "orders":
        return _order_failures(report)
    return list(report.failures)


def _order_failures(report) -> list[str]:
    # every zero-sum word without an order in q, and every infinite-order
    # sample without a certificate, leaves a message
    shape = ORDER_SHAPE.get(report.q)
    bad = []
    for msg in report.failures:
        m = _EXCEEDS.match(msg)
        if shape is not None and m and shape % int(m.group(1)) == 0:
            continue
        bad.append(msg)
    return bad
