"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` for the live lines, or via
``burniat verify-all``.
"""
import pytest

from burniat.verify import CRITERIA, DEFAULT_SEED, run_all

TIME_LIMITS = {1: 1, 2: 1, 3: 1, 4: 10, 5: 30, 6: 300, 7: 120, 8: 120,
               9: 30, 10: 60}


@pytest.mark.parametrize("number,name",
                         [(num, name) for num, name, _ in CRITERIA])
def test_criterion(number, name):
    result = run_all(DEFAULT_SEED, only=name)[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {number:2d} {name} "
          f"({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
    assert result.seconds <= TIME_LIMITS[number], \
        f"criterion {number} exceeded its {TIME_LIMITS[number]}s budget"
