import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
    settings.load_profile("derandomized")

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance_report():
    """Record and assert one pass/fail line per acceptance criterion; the
    collected lines are replayed in the terminal summary."""

    def _report(num: int, name: str, ok: bool, detail: str = ""):
        line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {name}"
        if detail:
            line += f" ({detail})"
        _acceptance_lines.append(line)
        print(line, flush=True)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines, key=lambda s: int(s.split(":")[0].split()[-1])):
            terminalreporter.line(line)
