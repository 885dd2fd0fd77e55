"""Verification report: condition checks, lemma entries and the gated
pipeline."""

from .conditions import (
    check_condition_1,
    check_condition_2,
    check_condition_3,
    check_condition_3_prime,
    check_condition_4,
    check_condition_5,
    check_conditions,
)
from .lemmas import PipelineState
from .pipeline import PREREQS, requested_lemmas, run_full_report, verify_tower
from .report import (
    FAIL,
    LEMMA_KEYS,
    PASS,
    SKIPPED,
    Entry,
    VerificationReport,
    failed,
    passed,
    skipped,
)

__all__ = [
    "Entry",
    "FAIL",
    "LEMMA_KEYS",
    "PASS",
    "PREREQS",
    "PipelineState",
    "SKIPPED",
    "VerificationReport",
    "check_condition_1",
    "check_condition_2",
    "check_condition_3",
    "check_condition_3_prime",
    "check_condition_4",
    "check_condition_5",
    "check_conditions",
    "failed",
    "passed",
    "requested_lemmas",
    "run_full_report",
    "skipped",
    "verify_tower",
]
