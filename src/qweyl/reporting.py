"""The check record shared by the verifiers and the report.

A check is the dict {"name", "status", "detail"} that the report's JSON
holds; the verifiers build it, and the CLI only sorts it by name.
"""

from __future__ import annotations


def check(name: str, ok: bool | None, detail: str = "") -> dict:
    """One named check; ok is None when it was skipped, else judged by truth."""
    status = "skipped" if ok is None else "pass" if ok else "fail"
    return {"name": name, "status": status, "detail": detail}


def all_ok(checks) -> bool:
    return all(c["status"] == "pass" for c in checks)
