import numpy as np
import pytest


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Counts calls of ``np.linalg.eigvalsh`` on one matrix (the PSD
    audit of a Gram) in a list of the matrix sizes audited; calls on a
    stack (the SPD floor checks of point stacks) are not counted."""
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 2:
            calls.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls
