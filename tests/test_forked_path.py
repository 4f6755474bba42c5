"""The tests that pin what ``report`` and ``simulate`` write and how they
exit, collected again here on ``process_path``'s forked path (in their own
modules they take the serial one), so that every pin is checked on both.
Classes come whole; ``conftest.py`` drops those of their tests that take
no ``process_path``.
"""

import pytest

from test_acceptance import test_criterion_8_report_determinism  # noqa: F401
from test_acceptance import test_power_fixture_report_digest  # noqa: F401
from test_acceptance import test_saved_schema_2_report_renders_alike  # noqa: F401
from test_cli import TestExitCodes, TestHappyPaths  # noqa: F401
from test_report import TestPlotDigests  # noqa: F401
from test_synthetic import TestBatchStream  # noqa: F401

pytestmark = [
    pytest.mark.usefixtures("process_path"),
    pytest.mark.parametrize("process_path", ["forked"], indirect=True),
]
