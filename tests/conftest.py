"""Collects one-line verdicts from the acceptance tests and prints them
as a block at the end of the run, so the terminal summary doubles as an
acceptance report."""

_ACCEPTANCE_LINES: list[str] = []


def rows(table) -> list[tuple]:
    """A table's rows as tuples of Python values, zipped from its columns."""
    return list(zip(*(column.tolist() for column in table.data)))


def record(line: str) -> None:
    """Queue a verdict line for the end-of-run acceptance section."""
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
