"""Shared pass/fail check records used by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Check:
    """One named check; ok is None when it was skipped."""

    name: str
    ok: bool | None
    detail: str = ""

    @property
    def status(self) -> str:
        if self.ok is None:
            return "skipped"
        return "pass" if self.ok else "fail"

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def all_ok(checks) -> bool:
    return all(c.ok for c in checks)
