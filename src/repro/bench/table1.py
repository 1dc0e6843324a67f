"""Table I: the qualitative framework-comparison table.

Renders the feature scores from :mod:`repro.frameworks.features` in the
paper's layout (criteria as rows, frameworks as columns, scores 1-3).

Like the timing sweeps, rendering degrades gracefully: a framework with a
missing or malformed score entry (a third-party features table plugged in
by a user) renders its cells as ``-`` and is reported as a structured
failure note instead of blowing up the whole table.
"""

from __future__ import annotations

from repro.bench.harness import FailureRow
from repro.bench.journal import RunJournal, open_journal
from repro.bench.reporting import format_csv, format_table
from repro.frameworks.features import CRITERIA, FRAMEWORKS, RATIONALE, SCORES


def _score(framework: str, criterion: str) -> "int | None":
    """Score for one cell, ``None`` when the entry is absent."""
    per_framework = SCORES.get(framework)
    if per_framework is None:
        return None
    return per_framework.get(criterion)


def framework_scores(
    framework: str, journal: "RunJournal | str | None" = None,
) -> "dict[str, int | None]":
    """One framework's score column, journal-cached per framework.

    With a journal, a column already recorded (same framework, same
    criteria list) is replayed instead of recomputed — the same
    skip-completed-cells contract the timing sweeps follow, so a mixed
    campaign (tables + timings) resumes uniformly.
    """
    key = {"experiment": "table1", "framework": framework,
           "criteria": list(CRITERIA)}
    book = open_journal(journal)
    if book is not None:
        entry = book.get(**key)
        if entry is not None and entry.kind == "measurement":
            recorded = entry.payload.get("scores", {})
            return {criterion: recorded.get(criterion)
                    for criterion in CRITERIA}
    scores = {criterion: _score(framework, criterion)
              for criterion in CRITERIA}
    if book is not None:
        book.record("measurement", key, {"scores": scores})
    return scores


def table1_rows(journal: "RunJournal | str | None" = None) -> list[list[object]]:
    book = open_journal(journal)
    columns = {fw: framework_scores(fw, book) for fw in FRAMEWORKS}
    return [
        [criterion, *[columns[framework][criterion] for framework in FRAMEWORKS]]
        for criterion in CRITERIA
    ]


def table1_headers() -> list[str]:
    return ["criterion", *FRAMEWORKS]


def table1_failures() -> list[FailureRow]:
    """One failure row per framework with missing score entries."""
    failures = []
    for framework in FRAMEWORKS:
        missing = [criterion for criterion in CRITERIA
                   if _score(framework, criterion) is None]
        if missing:
            failures.append(FailureRow(
                label=f"table1/{framework}", stage="prepare",
                error_type="MissingScores",
                message=f"no score for criteria: {', '.join(missing)}",
                attempts=1))
    return failures


def render_table1(with_rationale: bool = False,
                  journal: "RunJournal | str | None" = None) -> str:
    """The paper's Table I as aligned text (missing cells render as ``-``)."""
    body = format_table(
        table1_headers(), table1_rows(journal=journal),
        title="Table I: Comparison of Deep Learning frameworks (scores 1-3)")
    notes = [f"  {failure}" for failure in table1_failures()]
    if notes:
        body = "\n".join([body, *notes])
    if not with_rationale:
        return body
    rationale = [
        f"  {framework}: {RATIONALE.get(framework, '(no rationale recorded)')}"
        for framework in FRAMEWORKS
    ]
    return "\n".join([body, "", "Rationale (from Section II):", *rationale])


def table1_csv() -> str:
    return format_csv(table1_headers(), table1_rows())
