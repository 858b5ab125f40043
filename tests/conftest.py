import numpy as np
import pytest


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Counts calls of ``np.linalg.eigvalsh`` (the PSD audit) in a list
    of the matrix sizes audited."""
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls
