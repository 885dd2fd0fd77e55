"""Report containers for verification runs."""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

LEMMA_KEYS = (
    "homzz",
    "jislim",
    "zml",
    "quotient",
    "jjz",
    "homjz_a",
    "homjz_b",
    "weak_epi",
    "self_small_witness",
)


class Entry(NamedTuple):
    # ``details`` has no default: a NamedTuple default is one object shared
    # by every instance, and passed, failed and skipped each pass a dict.
    status: str
    witness: str
    details: dict
    skipped_due_to: Optional[str] = None

    def to_json(self) -> dict:
        out = {"status": self.status, "witness": self.witness, "details": self.details}
        if self.skipped_due_to is not None:
            out["skipped_due_to"] = self.skipped_due_to
        return out

    @property
    def depth_limited(self) -> bool:
        return self.status == SKIPPED and self.details.get("reason") == "depth-limited"


def passed(witness: str = "", **details) -> Entry:
    return Entry(PASS, witness, details)


def failed(witness: str, **details) -> Entry:
    return Entry(FAIL, witness, details)


def skipped(witness: str, due_to: Optional[str] = None, **details) -> Entry:
    return Entry(SKIPPED, witness, details, skipped_due_to=due_to)


class VerificationReport(NamedTuple):
    tool: Dict[str, str]
    tower: Dict[str, object]
    settings: Dict[str, object]
    conditions: Dict[str, Entry]
    lemmas: Dict[str, Entry]

    @property
    def overall(self) -> str:
        entries = list(self.conditions.values()) + list(self.lemmas.values())
        return FAIL if any(e.status == FAIL for e in entries) else PASS

    def entry(self, key: str) -> Entry:
        if key in self.conditions:
            return self.conditions[key]
        return self.lemmas[key]

    def to_json_tree(self) -> dict:
        return {
            "tool": dict(self.tool),
            "tower": dict(self.tower),
            "settings": dict(self.settings),
            "conditions": {k: e.to_json() for k, e in self.conditions.items()},
            "lemmas": {k: e.to_json() for k, e in self.lemmas.items()},
            "overall": self.overall,
        }
