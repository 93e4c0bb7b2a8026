"""Acceptance battery: each numbered criterion is one test below, so a
verbose run prints exactly one pass/fail line per criterion.

The pinned cases live in obslab.acceptance; their gates are the CLI
runners' verdicts (criteria 1 and 10 keep their own checks), surfaced here
through CriterionResult.details.
"""

import pytest

from obslab import acceptance


def _describe(result):
    failing = {k: v for k, v in result.details.get("checks", {}).items()
               if not v["ok"]}
    failing.update({f"{case['experiment']} {case['overlay']}: {v['name']}": v
                    for case in result.details.get("cases", [])
                    for v in case["verdicts"] if not v["pass"]})
    return (f"criterion {result.number} ({result.name}) failed; "
            f"failing checks: {failing}")


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"criterion_{i}" for i in range(1, len(acceptance.CRITERIA) + 1)],
)
def test_acceptance(criterion, tmp_path):
    if criterion is acceptance.criterion_10:
        result = criterion(scratch_dir=str(tmp_path))
    else:
        result = criterion()
    assert result.passed, _describe(result)
