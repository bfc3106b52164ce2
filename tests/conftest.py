import os
from pathlib import Path

import pytest

from ifmsim import build_space, square_layout, with_obstruction


def pytest_configure(config):
    # pyproject's pythonpath puts src on this process's path only; the tests
    # that start `python -m ifmsim.cli` need it in the child's environment
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


@pytest.fixture
def square():
    return square_layout()


@pytest.fixture
def bomb_layout(square):
    return with_obstruction(square, "lower")


@pytest.fixture(scope="session")
def two_mode_space():
    # n_max = 6 keeps every check far from the truncation edge but cheap
    return build_space(("p", "q"), 6)
