from __future__ import annotations

from pathlib import Path

import pytest

from eilab import harness

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def corpus5():
    return harness.corpus_up_to(5).graphs


@pytest.fixture(scope="session")
def corpus6():
    return harness.corpus_up_to(6).graphs


@pytest.fixture(scope="session")
def corpus7():
    return harness.corpus_up_to(7).graphs


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
