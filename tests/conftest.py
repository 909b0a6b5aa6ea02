from functools import cache

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-long",
        action="store_true",
        default=False,
        help="run the opt-in long verification scans (the m=2678 full run)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    skip = pytest.mark.skip(reason="long scan; enable with --run-long")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def fresh_answers(monkeypatch):
    """An empty memo of checked answers: the next answer is a first computation,
    with its cross-checks, whatever earlier tests asked for."""
    from hclat import plumbing

    monkeypatch.setattr(plumbing, "_answers", {})


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty point-query memo: no tangent number and no record is kept, so the
    next query sweeps from column 0."""
    from hclat import bernoulli

    monkeypatch.setattr(bernoulli, "_memo", ([], [0]))
    monkeypatch.setattr(bernoulli, "_records", {})


@pytest.fixture
def cold(monkeypatch, fresh_memo, fresh_answers):
    """Every process-wide memo empty, as in a new interpreter: the tangent memo,
    the prime table, the profiles and the checked answers."""
    from hclat import bernoulli, plumbing

    monkeypatch.setattr(bernoulli, "_sieve", cache(bernoulli._sieve.__wrapped__))
    monkeypatch.setattr(plumbing, "_profiles", {})
