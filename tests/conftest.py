import numpy as np
import pytest

from nontrap import escape
from nontrap import flow
from nontrap import geometry


@pytest.fixture(scope="session")
def free_1d():
    return geometry.preset_model("zero")


@pytest.fixture(scope="session")
def longrange_1d():
    return geometry.preset_model("longrange_pow")


@pytest.fixture(scope="session")
def double_bump_1d():
    return geometry.preset_model("double_bump")


@pytest.fixture(scope="session")
def well_1d():
    return geometry.preset_model("well")


def _scan(model):
    return flow.nontrapping_scan(model, n_samples=300, T_max=150.0)


@pytest.fixture(scope="session")
def verdict_free(free_1d):
    return _scan(free_1d)


@pytest.fixture(scope="session")
def escape_free(free_1d, verdict_free):
    return escape.assemble_escape(free_1d, 0.2, verdict_free)


@pytest.fixture(scope="session")
def escape_longrange(longrange_1d):
    return escape.assemble_escape(longrange_1d, 0.2, _scan(longrange_1d))


def shell_sample_1d(model, n, rmin=1.5, rmax=30.0, rng_seed=0):
    """Deterministic sample of the energy-window shell, both ends/branches."""
    rng = np.random.default_rng(rng_seed)
    r = rng.uniform(rmin, rmax, size=n)
    sign = rng.choice([-1.0, 1.0], size=n)
    z = r * sign
    lo, hi = model.lambda2 - model.delta, model.lambda2 + model.delta
    p = rng.uniform(lo, hi, size=n)
    v = model.potential.value(z)
    keep = p - v > 0
    zeta = rng.choice([-1.0, 1.0], size=n) * np.sqrt(np.clip(p - v, 0, None))
    return z[keep], zeta[keep]


def apply_separable(fz, gzeta, q, u):
    """Op(f(z) g(zeta)) u = f . ifft(g . fft(u)) on a GridQuantization q:
    the separable fast path, an oracle for the dense quantization."""
    return fz(q.z) * np.fft.ifft(np.asarray(gzeta(q.zeta)) * np.fft.fft(u))
