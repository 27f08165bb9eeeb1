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


def fraction_calls(run) -> dict:
    """The calls of Fraction's own methods while run() runs, by name:
    construction, comparisons, arithmetic and the rest; reading a
    numerator or a denominator is no call."""
    from fractions import Fraction

    counts = {}
    originals = {name: v for name, v in vars(Fraction).items() if callable(getattr(v, "__func__", v))}

    def counting(name, plain):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return plain(*args, **kwargs)

        return call

    try:
        for name, v in originals.items():
            wrapped = counting(name, getattr(v, "__func__", v))
            setattr(Fraction, name, type(v)(wrapped) if isinstance(v, (staticmethod, classmethod)) else wrapped)
        run()
    finally:
        for name, v in originals.items():
            setattr(Fraction, name, v)
    return counts
