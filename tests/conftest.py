from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# the acceptance tests append their verdict lines here; echoed after the
# run so they survive output capture
VERDICT_FILE = Path(__file__).parent / ".acceptance_verdicts.txt"

# wall time of each verdict line: the tests of its module that ran since
# the module's previous verdict line (criterion 8's parts write one line)
_pending_s: dict = {}
_verdict_s: list = []


def pytest_sessionstart(session):
    VERDICT_FILE.unlink(missing_ok=True)


def pytest_runtest_logreport(report):
    module = report.location[0]
    _pending_s[module] = _pending_s.get(module, 0.0) + report.duration
    if report.when != "teardown":
        return
    lines = (len(VERDICT_FILE.read_text().splitlines())
             if VERDICT_FILE.exists() else 0)
    if lines > len(_verdict_s):
        _verdict_s.extend([_pending_s.pop(module)] * (lines - len(_verdict_s)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICT_FILE.exists():
        terminalreporter.section("acceptance criteria")
        lines = VERDICT_FILE.read_text().splitlines()
        for line, secs in zip(lines, _verdict_s + [None] * len(lines)):
            wall = "" if secs is None else f"{secs:8.1f} s"
            terminalreporter.write_line(f"{wall:>10}  {line}")
