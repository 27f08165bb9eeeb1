from pathlib import Path

import pytest
from hypothesis import settings

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# A longer fixed-seed fuzz run: pytest tests/test_fuzz.py --hypothesis-profile=fuzz
settings.register_profile("fuzz", max_examples=3000)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")

