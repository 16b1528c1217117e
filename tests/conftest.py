import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

from qlwave.spectral import SpectralField

sys.path.insert(0, str(Path(__file__).parent))

from oracles import omega_weights


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def hermitian_field(rng, degree, scale=1.0, decay=0.0) -> SpectralField:
    """Random real field; decay > 0 damps high modes like w_j^-decay."""
    c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
    c = 0.5 * (c + np.conj(c[::-1]))
    if decay:
        c = c * omega_weights(degree) ** (-decay)
    return SpectralField(scale * c)


def warns_if_inadmissible(spec):
    """Expect the entry points' admissibility warning if spec is impulse; else a no-op context."""
    if spec.c is None:
        return pytest.warns(RuntimeWarning, match="sinc-compatibility")
    return contextlib.nullcontext()
