from __future__ import annotations

from pathlib import Path

import pytest

from eilab import harness, regularity_oracle

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _empty_oracle_record():
    """Every test leaves the oracle's one-graph record empty, so that a
    record built under a patched kernel never answers the next test."""
    yield
    regularity_oracle._whole_graph.cache_clear()


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
