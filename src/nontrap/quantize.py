"""Semiclassical quantization on a periodic 1D grid.

The calculus facts being exercised are dimension independent, so a periodic
box with symbols supported well inside is enough: discrete Fourier duality
is exact, there is no boundary pollution, and the O(h) statements are
measurable.  Standard (left) quantization

    (Op(a) u)(z_i) = (1/N) sum_k a(z_i, zeta_k) e^{i zeta_k (z_i - z_j)/h} u(z_j)

is realized by momentum-space multiplication for separable symbols and by
the discrete oscillatory sum (a circulant-indexed inverse FFT) in general.
A real symbol whose table is even in zeta quantizes to a real matrix (its
row kernels come from a real inverse FFT).  In the momentum basis Op(a) is
the table T = fft_z(a)/N read along diagonals, F Op(a) F^{-1}[m, k] =
T[(m - k) mod N, k], so the commutator defect is measured there, on the
momentum band only, with no product of two N x N matrices.  Operator norms
come from resolvent.power_norm (Lanczos on A*A from a fixed start vector,
stopped on a Ritz error bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from nontrap.errors import ConfigurationError
from nontrap.resolvent import power_norm


@dataclass(frozen=True)
class GridQuantization:
    """Periodic grid [-L, L) with N points and semiclassical parameter h.

    Invariants enforced at construction:
    - no aliasing: the represented momentum range |zeta| <= zeta_max
      reaches 4, four times the unit momentum scale of the symbols in play;
    - the grid resolves h-oscillation at the energy scale (>= 8 points per
      h-wavelength).
    """

    L: float
    N: int
    h: float
    energy_scale: float = 1.0

    def __post_init__(self):
        if self.N & (self.N - 1):
            raise ConfigurationError(f"grid size must be a power of two, got {self.N}")
        if self.h <= 0 or self.L <= 0:
            raise ConfigurationError("L and h must be positive")
        if self.zeta_max < 4.0:
            raise ConfigurationError(
                f"aliasing: represented |zeta| <= {self.zeta_max:.3f} but need "
                ">= 4; increase N or decrease L"
            )
        ppw = 2.0 * math.pi * self.h / (self.energy_scale * self.dz)
        if ppw < 8.0:
            raise ConfigurationError(
                f"resolution: {ppw:.2f} points per h-wavelength at the energy "
                "scale, need >= 8; increase N"
            )

    @property
    def dz(self):
        return 2.0 * self.L / self.N

    @property
    def z(self):
        return -self.L + self.dz * np.arange(self.N)

    @property
    def zeta(self):
        return self.h * 2.0 * math.pi * np.fft.fftfreq(self.N, d=self.dz)

    @property
    def zeta_max(self):
        return self.h * math.pi / self.dz

    def norm(self, u):
        """Discrete L^2 norm (with the dz measure)."""
        return float(np.linalg.norm(u) * math.sqrt(self.dz))


@dataclass(frozen=True)
class Symbol:
    """A phase-space symbol a(z, zeta) with optional analytic partials
    (needed for Poisson brackets)."""

    fn: Callable
    dz: Optional[Callable] = None
    dzeta: Optional[Callable] = None
    name: str = ""

    def table(self, q: GridQuantization):
        Zg, Sg = np.meshgrid(q.z, q.zeta, indexing="ij")
        return np.asarray(self.fn(Zg, Sg), dtype=complex)


def poisson_bracket(a: Symbol, b: Symbol) -> Symbol:
    """{a, b} = da/dzeta db/dz - da/dz db/dzeta."""
    for s in (a, b):
        if s.dz is None or s.dzeta is None:
            raise ConfigurationError(
                f"symbol {s.name!r} needs analytic partials for a Poisson bracket"
            )
    return Symbol(
        fn=lambda z, zeta: a.dzeta(z, zeta) * b.dz(z, zeta)
        - a.dz(z, zeta) * b.dzeta(z, zeta),
        name=f"{{{a.name},{b.name}}}",
    )


def quantize(a: Symbol, q: GridQuantization) -> np.ndarray:
    """Dense matrix of the left quantization of a on the grid.

    Identity symbols quantize to the identity exactly; z-only symbols to
    diagonal multiplication; zeta-only symbols to Fourier multipliers.  A
    table that is real and exactly even in zeta (tab[:, k] == tab[:, -k])
    gives a real matrix: its row kernels are real, so they are built with
    a real inverse FFT.  Any other symbol gives a complex matrix.
    """
    tab = a.table(q)
    i = np.arange(q.N)
    if not tab.imag.any() and np.array_equal(tab.real, tab.real[:, -i]):
        rows = np.fft.irfft(tab.real[:, : q.N // 2 + 1], n=q.N, axis=1)
    else:
        rows = np.fft.ifft(tab, axis=1)
    idx = (i[:, None] - i[None, :]) % q.N
    return rows[i[:, None], idx]


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Self-adjoint part (A + A*)/2."""
    return 0.5 * (A + A.conj().T)


def _momentum_table(a: Symbol, q: GridQuantization) -> np.ndarray:
    """T = fft_z(a(., zeta_k)) / N: F Op(a) F^{-1} (F the DFT) has entry
    T[(m - k) mod N, k] at [m, k]."""
    return np.fft.fft(a.table(q), axis=0) / q.N


def _momentum_block(T: np.ndarray, rows, cols) -> np.ndarray:
    """The rows x cols block of F Op(a) F^{-1} from a's momentum table."""
    return T[(rows[:, None] - cols[None, :]) % T.shape[0], cols[None, :]]


def commutator_defect(a: Symbol, b: Symbol, q: GridQuantization,
                      band: Optional[float] = None) -> float:
    """Operator norm of (i/h)[Op(a), Op(b)] - Op({a, b}) on the
    aliasing-safe momentum band.

    The norm is measured sandwiched between sharp projectors onto
    |zeta| <= band (default zeta_max / 2): outside that band a discrete
    grid cannot represent the calculus faithfully for polynomially growing
    symbols (Nyquist wrap-around), and the grid invariants only protect the
    interior band.  The defect is O(h) as h decreases; it vanishes
    identically for a = b and up to grid error for symbols linear in zeta.

    The projector is diagonal in the momentum basis, so the sandwiched
    operator is the band block D[b, b] of the defect there, built from two
    (band x N)(N x band) products.  The Lanczos norm runs on the
    position-space vector (fft to the band, the block, ifft back), so its
    start vector and stopping rule are those of the dense operator.
    """
    n = q.N
    kb = np.flatnonzero(np.abs(q.zeta) <= (0.5 * q.zeta_max if band is None
                                           else band))
    every = np.arange(n)
    ta, tb = _momentum_table(a, q), _momentum_table(b, q)
    D = (1j / q.h) * (_momentum_block(ta, kb, every) @ _momentum_block(tb, every, kb)
                      - _momentum_block(tb, kb, every) @ _momentum_block(ta, every, kb))
    D -= _momentum_block(_momentum_table(poisson_bracket(a, b), q), kb, kb)
    DH = D.conj().T
    root_n = math.sqrt(n)

    def apply_A(v):
        return D @ (np.fft.fft(v)[kb] / root_n)

    def apply_AH(u):
        w = np.zeros(n, dtype=complex)
        w[kb] = DH @ u
        return root_n * np.fft.ifft(w)

    return power_norm(apply_A, apply_AH, n).value


def garding_floor(a: Symbol, q: GridQuantization) -> float:
    """Minimum eigenvalue of the symmetrized quantization of a.

    For pointwise nonnegative bounded symbols the floor is bounded below by
    -C h (sharp Garding); the dense eigensolve restricts N to <= 2048.  A
    real zeta-even symbol quantizes to a real matrix, so its eigensolve is
    real symmetric."""
    if q.N > 2048:
        raise ConfigurationError("garding_floor uses a dense eigensolve; N <= 2048")
    A = symmetrize(quantize(a, q))
    w = np.linalg.eigvalsh(A)
    return float(w[0])


def weighted_norm(u, m, s, q: GridQuantization) -> float:
    """|| <hD>^m <z>^s u ||_{L^2} via position weight then momentum
    multiplier (spectral)."""
    w = (1.0 + q.z**2) ** (s / 2.0) * np.asarray(u)
    mult = (1.0 + q.zeta**2) ** (m / 2.0)
    out = np.fft.ifft(mult * np.fft.fft(w))
    return q.norm(out)


# ---------------------------------------------------------------------------
# shipped nonnegative test symbols for the Garding sweep
# ---------------------------------------------------------------------------

def garding_test_symbols():
    """Nonnegative test symbols for the Garding sweep.

    Both saturate the -C h lower bound (floors genuinely of order h), so
    |min-eig|/h is a stable constant across the sweep.  Smooth symbols with
    quadratic zeros do better than the guarantee -- their floors decay like
    h^2 -- which makes the /h ratio drift downward."""
    return [
        Symbol(
            fn=lambda z, zeta: np.abs(np.sin(z)) * np.exp(-(zeta**2)),
            name="abs_sin_gauss",
        ),
        Symbol(
            fn=lambda z, zeta: (1.0 - np.exp(-(z**2)) * np.exp(-(zeta**2))),
            name="one_minus_gauss",
        ),
    ]
