import warnings

import pytest

pytest_plugins = ["pytester"]

# A failing Hypothesis test makes its pytest plugin import ``hypothesis.extra._patching``, whose
# ``libcst`` import warns ``DeprecationWarning``; under ``filterwarnings = ["error"]`` that warning
# would end the run with INTERNALERROR instead of reporting the failure.  Importing it once here,
# with that warning ignored, leaves nothing to warn when the plugin imports it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

_acceptance_lines: list[str] = []


@pytest.fixture
def criterion_report():
    """Collect one pass/fail line per acceptance criterion for the summary."""

    def _report(line: str) -> None:
        _acceptance_lines.append(line)

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)
