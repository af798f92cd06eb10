"""Correctness checks.  Each returns a list of problems (empty = pass).

They are plain functions over program outputs so the self-test can feed
them planted violations.
"""

import hashlib


def localize_problems(cells, reports):
    """Every report valid; no cell with a ``noncommon`` limiter localized.

    ``cells`` are ``(label, limiter)`` pairs aligned with ``reports``.
    """
    problems = []
    for (label, limiter), report in zip(cells, reports):
        if report.invalid:
            problems.append(f"{label}: invalid report ({report.reason_code})")
        elif limiter == "noncommon" and report.localized:
            problems.append(f"{label}: noncommon limiter localized ({report.reason_code})")
    if len(cells) != len(reports):
        problems.append(f"{len(cells)} cells but {len(reports)} reports")
    return problems


def verdict_digest(reports):
    """SHA-256 over every report's outcome, mechanism and reason code."""
    digest = hashlib.sha256()
    for report in reports:
        line = f"{report.outcome.value}|{report.mechanism.value}|{report.reason_code}\n"
        digest.update(line.encode())
    return digest.hexdigest()


def record_problems(expected, actual, label):
    """Two record-line streams must be byte-identical."""
    if expected == actual:
        return []
    if len(expected) != len(actual):
        return [f"{label}: {len(actual)} records, expected {len(expected)}"]
    first = next(i for i, (a, b) in enumerate(zip(expected, actual)) if a != b)
    return [f"{label}: record {first} differs"]


def warm_problems(result, cells, events):
    """A warm pass: every cell a hit and nothing simulated."""
    problems = []
    if result.hits != cells:
        problems.append(f"warm pass: {result.hits} hits of {cells} cells")
    if events:
        problems.append(f"warm pass simulated {events} events")
    return problems


def sweep_failure_problems(result, label):
    problems = [f"{label}: cell {f.index} quarantined ({f.error})" for f in result.failures]
    if result.interrupted:
        problems.append(f"{label}: sweep interrupted")
    return problems


def database_problems(row_db, columnar_db):
    """The row and columnar backends must build identical databases."""
    if row_db.entries == columnar_db.entries:
        return []
    return [
        f"row backend built {len(row_db)} entries, columnar {len(columnar_db)}; "
        "entries differ"
    ]


def service_problems(result, decision_logs):
    """One terminal response per submission; identical decision sequences."""
    problems = []
    try:
        result.check_one_terminal_response_each()
    except AssertionError as exc:
        problems.append(str(exc))
    first = decision_logs[0]
    for index, log in enumerate(decision_logs[1:], start=1):
        if log != first:
            problems.append(f"pass {index}: decision sequence differs from pass 0")
    return problems
