import numpy as np
import pytest

from rupturesim.cli import preset_config


@pytest.fixture(scope="session")
def ex1():
    return preset_config("ex1")


@pytest.fixture(scope="session")
def ex2():
    return preset_config("ex2")


@pytest.fixture(scope="session")
def ex3():
    return preset_config("ex3")


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the ``np.fft.rfft``/``np.fft.irfft`` calls made while the
    test runs, in call order."""
    calls = []
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
