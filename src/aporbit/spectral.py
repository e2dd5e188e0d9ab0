"""Exact sinusoid representation of a certified periodic chain.

An eventually periodic sequence with period L is, on its periodic tail,
a finite sum of at most floor(L/2)+1 harmonics:

    y(t) = sum_{m=0}^{M} a_m sin(2 pi m t / L) + b_m cos(2 pi m t / L)

valid at every integer t >= T.  Coefficients come from the real discrete
Fourier analysis of one period of the tail, rolled so that its row s is
y(t) for the t >= T with t = s (mod L): the formula then holds in t itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BeforePhaseOrigin, NotPeriodic
from .orbit import ChainResult


@dataclass(frozen=True, eq=False)
class TrigForm:
    period: int       # L
    phase_origin: int  # T: the formula holds for t >= T
    harmonics: int    # M = floor(L/2)
    a: np.ndarray     # sine coefficients, shape (M+1, d)
    b: np.ndarray     # cosine coefficients, shape (M+1, d)

    @property
    def d(self) -> int:
        return self.a.shape[1]

    def to_json(self):
        return {
            "L": self.period,
            "T": self.phase_origin,
            "M": self.harmonics,
            "a": self.a.tolist(),
            "b": self.b.tolist(),
        }


def fit_trig_samples(values: np.ndarray, pre_period: int, period: int) -> TrigForm:
    """Fit one period of samples values[u] = y(T+u), u = 0..L-1.

    Rolled by T mod L, row s of the period is y(t) for every t >= T with
    t = s (mod L), so one real FFT gives, in O(L log L), the cosine and
    sine sums (2/L) sum_s y(s) cos|sin(2 pi m s / L) of every harmonic in
    t itself.  The zero and Nyquist (even L) terms have weight 1/L and no
    sine part.
    """
    values = np.asarray(values, dtype=float)
    L = period
    T = pre_period
    if L < 1:
        raise ValueError(f"period must be >= 1, got {L}")
    if values.ndim != 2 or values.shape[0] != L:
        raise ValueError(f"need samples of shape (L, d), got {values.shape}")
    M = L // 2
    # sum_s y(s) e^(-2 pi i m s / L)
    spectrum = np.fft.rfft(np.roll(values, T % L, axis=0), axis=0)
    b = spectrum.real * (2.0 / L)
    a = spectrum.imag * (-2.0 / L)
    edges = [0, M] if L % 2 == 0 else [0]
    b[edges] = spectrum.real[edges] / L
    a[edges] = 0.0
    return TrigForm(period=L, phase_origin=T, harmonics=M, a=a, b=b)


def fit_trig(chain: ChainResult) -> TrigForm:
    """Fit the periodic tail of a chain; requires its (T, L) certificate."""
    if not isinstance(chain, ChainResult):
        raise NotPeriodic("chain carries no periodicity certificate")
    chain.check_certificate()
    T, L = chain.pre_period, chain.period
    values = chain.values(T, T + L - 1)
    return fit_trig_samples(values, T, L)


def eval_trig(form: TrigForm, t: int) -> np.ndarray:
    """Evaluate the finite sum at integer t >= T; returns a length-d vector."""
    return eval_trig_range(form, t, t)[0]


def eval_trig_range(form: TrigForm, t_start: int, t_end: int) -> np.ndarray:
    """The finite sum at t = t_start..t_end inclusive (t_start >= T), shape (n, d).

    One inverse real FFT of the coefficients gives the sum at t = 0..L-1,
    which every other t reads back at t mod L: an exact integer reduction,
    so precision does not degrade for large t.
    """
    if t_start < form.phase_origin:
        raise BeforePhaseOrigin(
            f"t={t_start} is before the phase origin T={form.phase_origin}"
        )
    L = form.period
    # y(t) = sum_m b_m cos(th t) + a_m sin(th t) = irfft of X_m = (L/2)(b_m - i a_m),
    # with weight L (not L/2) on the zero and Nyquist terms.
    spectrum = (form.b - 1j * form.a) * (L / 2.0)
    spectrum[0] = form.b[0] * L
    if L % 2 == 0:
        spectrum[L // 2] = form.b[L // 2] * L
    one_period = np.fft.irfft(spectrum, n=L, axis=0)
    return one_period[np.arange(t_start, t_end + 1, dtype=np.int64) % L]
