"""Output verification: every timed operation is checked, failures are counted.

A :class:`Verifier` is the single tally behind ``failed_share``: each row,
HTTP response or whole-phase invariant is one *attempted* operation, and each
violation one *failed* operation.  The command exits non-zero when any
operation failed, so a wrong answer can never be reported as a fast one.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

#: HTTP statuses the serve_mixed client accepts.
ACCEPTED_STATUS = frozenset({200, 202, 304})


class Verifier:
    """Counts attempted and failed operations and keeps the first complaints."""

    MAX_PROBLEMS = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, passed: bool, problem: str) -> bool:
        """Record one operation; ``problem`` is kept when it did not pass."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.problems) < self.MAX_PROBLEMS:
                self.problems.append(problem)
        return bool(passed)

    def _check_trial(
        self, where: str, index: Any, protocol: Any, adversary: Any,
        status: Any, agreement: Any, validity: Any, error: Any,
    ) -> bool:
        """A trial passes when it ran, agreed, and stayed in the honest hull."""
        if status == "ok" and agreement is True and validity is True:
            return self.check(True, "")
        return self.check(
            False,
            f"{where}: trial {index} ({protocol}/{adversary}) status={status!r} "
            f"agreement={agreement!r} validity={validity!r} error={error!r}",
        )

    def check_row(self, row: Mapping[str, Any], where: str) -> bool:
        """:meth:`_check_trial` over one exported row (a parsed JSONL line)."""
        return self._check_trial(
            where, row.get("spec_trial_index"), row.get("spec_protocol"), row.get("spec_adversary"),
            row.get("status"), row.get("agreement"), row.get("validity"), row.get("error"),
        )

    def check_results(self, results: Iterable[Any], where: str) -> None:
        """:meth:`_check_trial` over ``TrialResult`` objects."""
        for result in results:
            spec = result.spec
            self._check_trial(
                where, spec.trial_index, spec.protocol, spec.adversary,
                result.status, result.agreement, result.validity, result.error,
            )
