"""Structured verdicts shared by the law and lemma checkers.

Slack is always the literal LHS - RHS of the inequality being checked,
recorded exactly for integer laws; the verdict states which direction is
the good one. Witness payloads carry enough data to replay the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

VERDICT_HOLDS = "holds"
VERDICT_VIOLATED = "violated"
VERDICT_HYPOTHESIS_NOT_MET = "hypothesis_not_met"
VERDICT_SKIPPED = "skipped"
VERDICT_FINDING = "finding"

VERDICTS = (
    VERDICT_HOLDS,
    VERDICT_VIOLATED,
    VERDICT_HYPOTHESIS_NOT_MET,
    VERDICT_SKIPPED,
    VERDICT_FINDING,
)


@dataclass
class LawReport:
    law: str
    verdict: str
    slack: Optional[int | float] = None
    witness: dict[str, Any] = field(default_factory=dict)
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "verdict": self.verdict,
            "slack": self.slack,
            "witness": self.witness,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LawReport":
        return cls(
            law=data["law"],
            verdict=data["verdict"],
            slack=data.get("slack"),
            witness=data.get("witness", {}),
            detail=data.get("detail", ""),
        )


def subset_payload(S) -> dict:
    """JSON-able payload for a FiniteSubset (backend spec + printed elements)."""
    return {
        "backend": S.backend.spec,
        "elements": S.backend.format_keys(S.keys),
    }


def subset_from_payload(payload: dict):
    from .groups import backend_from_spec
    from .setops import FiniteSubset

    backend = backend_from_spec(payload["backend"])
    return FiniteSubset.from_keys(backend, (backend.parse_key(t) for t in payload["elements"]))
