"""Truncated two-sided Fourier series with exact convolution arithmetic.

A series f(xi) = sum_{|n| <= N} c_n * exp(i*n*xi) is stored as a complex
coefficient array of shape (2N+1, *tail) where the leading axis runs over
the harmonic index n = -N..N and `tail` is () for scalar series, (d,) for
vector valued series and (r, c) for matrix valued series.  Real valued
series satisfy c_{-n} = conj(c_n); this symmetry is enforced on request,
never silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffTooSmall

__all__ = ["FourierSeries"]


@dataclass(frozen=True)
class FourierSeries:
    """Two-sided truncated Fourier series.

    Parameters
    ----------
    coeffs : ndarray, complex, shape (2N+1, *tail)
        Harmonic coefficients, leading index n = -N..N.
    """

    coeffs: np.ndarray = field()

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim < 1 or arr.shape[0] % 2 != 1:
            raise ValueError("coefficient array must have odd leading length")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, cutoff: int, tail: tuple = ()) -> "FourierSeries":
        return cls(np.zeros((2 * cutoff + 1,) + tail, dtype=complex))

    @classmethod
    def constant(cls, value) -> "FourierSeries":
        value = np.asarray(value, dtype=complex)
        return cls(value[np.newaxis, ...])

    @classmethod
    def cosine(cls, amplitude=1.0, n: int = 1) -> "FourierSeries":
        """amplitude * cos(n*xi) as a scalar real series."""
        a = complex(amplitude) / 2.0
        arr = np.zeros(2 * n + 1, dtype=complex)
        arr[0] = a
        arr[2 * n] = a
        return cls(arr)

    @classmethod
    def sine(cls, amplitude=1.0, n: int = 1) -> "FourierSeries":
        """amplitude * sin(n*xi) as a scalar real series."""
        a = complex(amplitude) / (2.0j)
        arr = np.zeros(2 * n + 1, dtype=complex)
        arr[0] = -a
        arr[2 * n] = a
        return cls(arr)

    @classmethod
    def from_components(cls, parts) -> "FourierSeries":
        """Stack scalar series into a vector valued series."""
        cut = max(p.cutoff for p in parts)
        cols = [p.pad(cut).coeffs for p in parts]
        return cls(np.stack(cols, axis=-1))

    # -- basic properties --------------------------------------------

    @property
    def cutoff(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def tail_shape(self) -> tuple:
        return self.coeffs.shape[1:]

    @property
    def dim(self) -> int:
        if len(self.tail_shape) != 1:
            raise ValueError("dim is defined for vector valued series only")
        return self.tail_shape[0]

    def coefficient(self, n: int):
        """Coefficient of exp(i*n*xi); zero outside the stored window."""
        if abs(n) > self.cutoff:
            return np.zeros(self.tail_shape, dtype=complex)
        return self.coeffs[n + self.cutoff]

    def norm(self) -> float:
        """l2 norm of the coefficient sequence (Parseval norm / sqrt(2*pi))."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def is_real(self, tol: float = 1e-12) -> bool:
        flipped = np.conj(self.coeffs[::-1])
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        return float(np.max(np.abs(self.coeffs - flipped))) <= tol * scale

    # -- structural operations ---------------------------------------

    def pad(self, cutoff: int) -> "FourierSeries":
        if cutoff < self.cutoff:
            raise ValueError("pad cannot shrink the window; use truncate")
        if cutoff == self.cutoff:
            return self
        extra = cutoff - self.cutoff
        pads = [(extra, extra)] + [(0, 0)] * len(self.tail_shape)
        return FourierSeries(np.pad(self.coeffs, pads))

    def truncate(self, cutoff: int, tail_frac: float | None = None) -> "FourierSeries":
        """Drop harmonics beyond `cutoff`.

        When `tail_frac` is given, raise CutoffTooSmall if the dropped tail
        carries more than that fraction of the total coefficient norm.
        """
        if cutoff >= self.cutoff:
            return self
        lo = self.cutoff - cutoff
        hi = self.cutoff + cutoff + 1
        kept = self.coeffs[lo:hi]
        if tail_frac is not None:
            total = float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))
            tail = np.sqrt(max(total**2 - float(np.sum(np.abs(kept) ** 2)), 0.0))
            if total > 0 and tail > tail_frac * total:
                raise CutoffTooSmall(
                    f"cutoff {cutoff} drops {tail:.3e} of norm {total:.3e}"
                )
        return FourierSeries(kept)

    def trim(self, tol: float = 1e-14) -> "FourierSeries":
        """Shrink the window to the smallest one keeping all tail mass <= tol."""
        mags = np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1).max(axis=1)
        scale = max(float(mags.max()), 1e-300)
        N = self.cutoff
        keep = N
        while keep > 0:
            i = N - keep
            if mags[i] > tol * scale or mags[2 * N - i] > tol * scale:
                break
            keep -= 1
        return self.truncate(keep) if keep < N else self

    def symmetrized(self) -> "FourierSeries":
        """Project onto the real valued subspace: c_{-n} <- conj(c_n) average."""
        flipped = np.conj(self.coeffs[::-1])
        return FourierSeries(0.5 * (self.coeffs + flipped))

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        cut = max(self.cutoff, other.cutoff)
        return FourierSeries(self.pad(cut).coeffs + other.pad(cut).coeffs)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        cut = max(self.cutoff, other.cutoff)
        return FourierSeries(self.pad(cut).coeffs - other.pad(cut).coeffs)

    def __neg__(self) -> "FourierSeries":
        return FourierSeries(-self.coeffs)

    def scale(self, factor) -> "FourierSeries":
        return FourierSeries(self.coeffs * factor)

    def derivative(self, order: int = 1) -> "FourierSeries":
        """d/dxi applied `order` times: c_n -> (i*n)**order * c_n."""
        n = np.arange(-self.cutoff, self.cutoff + 1)
        fac = (1j * n) ** order
        fac = fac.reshape((-1,) + (1,) * len(self.tail_shape))
        return FourierSeries(self.coeffs * fac)

    def shift(self, delta: float) -> "FourierSeries":
        """Series of xi -> f(xi - delta): c_n -> c_n * exp(-i*n*delta)."""
        n = np.arange(-self.cutoff, self.cutoff + 1)
        fac = np.exp(-1j * n * delta)
        fac = fac.reshape((-1,) + (1,) * len(self.tail_shape))
        return FourierSeries(self.coeffs * fac)

    def evaluate(self, xi):
        """Evaluate at scalar or array xi; returns shape xi.shape + tail."""
        xi = np.asarray(xi, dtype=float)
        n = np.arange(-self.cutoff, self.cutoff + 1)
        phases = np.exp(1j * np.multiply.outer(xi, n))  # xi.shape + (2N+1,)
        return np.tensordot(phases, self.coeffs, axes=(-1, 0))

    def evaluate_real(self, xi):
        vals = self.evaluate(xi)
        return np.real(vals)

    def convolve(self, other: "FourierSeries") -> "FourierSeries":
        """Product series, exact, window = sum of windows.

        Tail shapes combine as scalar*any, matrix@vector or matrix@matrix;
        vector*vector is rejected (no canonical product).
        """
        return _convolve(self, other)


def _result_tail(tf: tuple, tg: tuple) -> tuple:
    if tf == ():
        return tg
    if tg == ():
        return tf
    if len(tf) == 2 and len(tg) in (1, 2) and tf[1] == tg[0]:
        return (tf[0],) if len(tg) == 1 else (tf[0], tg[1])
    raise ValueError(f"no product rule for tails {tf} x {tg}")


def _convolve(f: FourierSeries, g: FourierSeries) -> FourierSeries:
    Nf, Ng = f.cutoff, g.cutoff
    N = Nf + Ng
    tail = _result_tail(f.tail_shape, g.tail_shape)
    out = np.zeros((2 * N + 1,) + tail, dtype=complex)
    gc = g.coeffs
    for i in range(2 * Nf + 1):
        block = f.coeffs[i]
        if not np.any(block):
            continue
        if block.ndim == 0:
            contrib = block * gc
        elif gc.ndim == 1:
            # scalar g times vector or matrix f
            contrib = np.multiply.outer(gc, block)
        elif block.ndim == 2 and gc.ndim == 2:
            # matrix series times vector series
            contrib = np.einsum("rc,kc->kr", block, gc)
        elif block.ndim == 2 and gc.ndim == 3:
            contrib = np.einsum("rc,kcs->krs", block, gc)
        else:
            raise ValueError(
                f"no product rule for tails {f.tail_shape} x {g.tail_shape}"
            )
        out[i : i + 2 * Ng + 1] += contrib
    return FourierSeries(out)

