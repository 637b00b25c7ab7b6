import random

import pytest

from chainanchor import epid
from chainanchor.groupmath import DESK, ParameterProfile

# Small profile for tests that only need the algebra, not desk-scale security.
TINY = ParameterProfile("tiny", l_N=64, l_f=10, l_e=16, l_e_prime=8,
                        l_v=90, l_phi=16, l_H=128, l_p=32, l_q=16)


@pytest.fixture(scope="session")
def desk_group():
    rng = random.Random(0xC0FFEE)
    return epid.setup_group(DESK, b"idp-pi:test-group", rng)


@pytest.fixture(scope="session")
def desk_gpk(desk_group):
    return desk_group[0]


def make_member(gpk, gipk, rng, nonce=b"join-nonce"):
    state, request = epid.join_request(gpk, nonce, rng)
    response = epid.issue_credential(gpk, gipk, request, nonce, rng)
    return epid.complete_join(state, response, gpk)


@pytest.fixture(scope="session")
def member_key(desk_group):
    gpk, gipk = desk_group
    return make_member(gpk, gipk, random.Random(0xBEEF))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", None) != "call":
                continue
            if "test_acceptance.py" in report.nodeid:
                rows.append((report.nodeid.split("::")[-1], status))
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, status in sorted(rows):
            verdict = "PASS" if status == "passed" else "FAIL"
            terminalreporter.write_line(f"{verdict} {name}")
