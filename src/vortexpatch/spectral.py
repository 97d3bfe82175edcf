"""Discrete periodic fields, Fourier calculus, and truncated operator matrices.

Conventions used throughout the package:

* the torus integral is normalized, ``int_T f = (1/2pi) int_0^{2pi} f``, and
  every quadrature is the plain average of uniform grid samples (trapezoid
  rule, spectrally accurate for smooth periodic integrands);
* Fourier coefficients are taken with ``norm="forward"`` so that
  ``coeffs[0] = mean(f)`` and Parseval reads ``sum |c|^2 = mean |f|^2``;
* fields live on grids ``(phi_1, ..., phi_d, theta)`` with theta on the last
  axis; grid sizes are powers of two.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

__all__ = [
    "PeriodicField",
    "LinearOperatorMatrix",
    "theta_grid",
    "sobolev_norm",
    "offdiag_norm",
    "k1_multiplier_coeffs",
    "k2_multiplier_coeffs",
    "spectral_derivative",
]


def _fmt(x: float) -> str:
    """The one CSV float format: scientific notation, 17 significant digits."""
    return format(float(x), ".16e")


def _csv(header: str, rows) -> str:
    """The one CSV table writer: the header line, then one line per row with the
    cells float -> ``_fmt``, int -> str, lattice site -> "l1 l2", None -> empty."""
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, (tuple, list)):
            return '"' + " ".join(str(v) for v in x) + '"'
        return str(x) if isinstance(x, numbers.Integral) else _fmt(x)
    return "\n".join([header] + [",".join(map(cell, r)) for r in rows]) + "\n"


def _read_only(a: np.ndarray) -> np.ndarray:
    """Freeze a cached table: every caller shares it, so one write would
    corrupt every later call at that size."""
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=64)
def theta_grid(M: int) -> np.ndarray:
    """Uniform grid of M points on [0, 2pi). Cached, hence read-only."""
    return _read_only(2.0 * np.pi * np.arange(M) / M)


@functools.lru_cache(maxsize=64)
def _mode_numbers(n: int) -> np.ndarray:
    """Integer Fourier mode numbers in FFT storage order. Cached, hence read-only."""
    return _read_only(np.fft.fftfreq(n, 1.0 / n).astype(int))


def _support(a: np.ndarray) -> np.ndarray:
    """Boolean per index of the last axis: whether some entry of a there is nonzero."""
    return np.any(a != 0, axis=tuple(range(a.ndim - 1)))


class PeriodicField:
    """A function on the torus, held as real samples on a uniform grid.

    The last axis is theta; any leading axes are the phi angles.  Samples are
    real: the constructor refuses complex values, so the coefficients are
    Hermitian, c_{-l, -j} = conj(c_{l, j}).

    A field built by ``from_coeffs`` records its theta band, the theta modes
    j at which some coefficient c_{l, j} or its mirror c_{-l, -j} is nonzero;
    a field built from samples has the full band.
    """

    def __init__(self, values):
        values = np.asarray(values)
        if values.dtype.kind == "c":
            raise ValueError("a PeriodicField holds real samples, got complex values")
        if values.dtype.kind != "f":
            values = values.astype(float)
        for n in values.shape:
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError(f"grid sizes must be powers of two, got {values.shape}")
        self.values = values
        self._coeffs = None
        self._theta_coeffs = None
        self._theta_band = None  # boolean per theta mode (FFT order); None: every mode

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs) -> "PeriodicField":
        """The real part of the field with these coefficients."""
        coeffs = np.asarray(coeffs, dtype=complex)
        out = cls(np.fft.ifftn(coeffs, norm="forward").real)
        band = _support(coeffs)
        # the real part also holds the mirror -j of each mode j
        out._theta_band = band | band[-_mode_numbers(len(band))]
        return out

    # -- basic structure ----------------------------------------------

    @property
    def dims(self) -> int:
        return self.values.ndim

    @property
    def grid_sizes(self):
        return self.values.shape

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = np.fft.fftn(self.values, norm="forward")
        return self._coeffs

    @property
    def theta_coeffs(self) -> np.ndarray:
        """Fourier coefficients in theta alone, per phi point (FFT order along the
        last axis).  They are the theta FFT of the samples on the theta band and
        exact zeros off it, where the FFT holds only the round-off of the
        samples (<= 1e-16 sup|f| for a field built by ``from_coeffs``).
        Cached, hence read-only."""
        if self._theta_coeffs is None:
            c = np.fft.fft(self.values, axis=-1, norm="forward")
            if self._theta_band is not None:
                c[..., ~self._theta_band] = 0.0
            self._theta_coeffs = _read_only(c)
        return self._theta_coeffs

    def mode_weights(self) -> np.ndarray:
        """The lattice weight <l, j> = max(1, |l|_1, |j|) on the coeff grid."""
        shape = self.values.shape
        mats = np.meshgrid(*[np.abs(_mode_numbers(n)) for n in shape], indexing="ij")
        lsum = sum(mats[:-1]) if len(mats) > 1 else np.zeros(shape, dtype=int)
        return np.maximum(1, np.maximum(lsum, mats[-1]))


def sobolev_norm(field: PeriodicField, s: float) -> float:
    """H^s norm: (sum <l,j>^{2s} |c_{l,j}|^2)^{1/2}."""
    w = field.mode_weights().astype(float)
    return float(np.sqrt(np.sum(w ** (2.0 * s) * np.abs(field.coeffs) ** 2)))


def spectral_derivative(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """d/dtheta (or d/dphi_i) of real samples by exact Fourier differentiation."""
    if np.iscomplexobj(values):
        raise ValueError("spectral_derivative takes real samples, got complex values")
    n = values.shape[axis]
    k = _mode_numbers(n)
    shape = [1] * values.ndim
    shape[axis] = n
    hat = np.fft.fft(values, axis=axis) * (1j * k.reshape(shape))
    return np.fft.ifft(hat, axis=axis).real


# ---------------------------------------------------------------------------
# Fourier multipliers of the two singular/smoothing kernels
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def k1_multiplier_coeffs(M: int) -> np.ndarray:
    """Fourier coefficients of K1(u) = (1/2) log(sin^2(u/2)).

    Mode m != 0 carries -1/(2|m|); the mean is -log 2. Cached, hence read-only.
    """
    m = _mode_numbers(M)
    out = np.empty(M)
    out[0] = -np.log(2.0)
    out[1:] = -0.5 / np.abs(m[1:])
    return _read_only(out)


@functools.lru_cache(maxsize=256)
def k2_multiplier_coeffs(M: int, b: float) -> np.ndarray:
    """Fourier coefficients of K2(u) = log|1 - b^2 e^{iu}|: zero mean, -b^{2|m|}/(2|m|)."""
    m = _mode_numbers(M)
    out = np.empty(M)
    out[0] = 0.0
    am = np.abs(m[1:])
    out[1:] = -(b ** (2.0 * am)) / (2.0 * am)
    return _read_only(out)


def _multiplier_matrix(mult: np.ndarray) -> np.ndarray:
    """The real M x M matrix that acts on a column of samples as the even
    multiplier ``mult`` (mult[m] = mult[-m], FFT order) acts on its Fourier
    coefficients.  It is circulant, [i, k] = c[(i - k) mod M], with c the inverse
    FFT of ``mult``, so it is built from one column and no M x M complex array."""
    M = len(mult)
    c = np.fft.ifft(mult).real
    idx = np.subtract.outer(np.arange(M), np.arange(M))
    idx %= M
    return c[idx]


# ---------------------------------------------------------------------------
# Truncated operator matrices
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _jmodes(N: int) -> np.ndarray:
    """The zero-mean modes [-N, ..., -1, 1, ..., N] of a truncation. Cached, hence read-only."""
    return _read_only(np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)]))


def _mirrored(a: np.ndarray) -> np.ndarray:
    """The mirror (l, j, j0) -> (-l, -j, -j0) of band-stacked entries, or j -> -j of
    a jmode vector: in the band order of ``LinearOperatorMatrix`` and in jmodes it
    reverses every axis."""
    return np.flip(a)


def _mirror_project(a: np.ndarray, sign: int) -> np.ndarray:
    """The exact projection (a + sign a(mirror))/2 onto arrays with a(mirror) = sign a;
    the identity on them in exact arithmetic, it restores the symmetry that round-off
    breaks."""
    m = _mirrored(a)
    return 0.5 * (a + m if sign > 0 else a - m)


class LinearOperatorMatrix:
    """Finite Fourier truncation of an operator on zero-mean fields.

    Entries are stored band-wise in the time (phi) indices — the operator is
    Toeplitz in time — and densely in the space (theta) indices:

        entries[b, a, c] = T^{l0 + bands[b], jmodes[a]}_{l0, jmodes[c]}

    with ``jmodes = [-N, ..., -1, 1, ..., N]`` and N >= 1.  ``entries`` has the
    shape (len(bands), 2N, 2N) and ``bands`` the shape (len(bands), d); ``d = 0``
    (no phi angle, the one band l = () of shape (1, 0)) covers the operators of
    the linearized-patch module.

    Band order, checked on construction: ``bands`` is sorted lexicographically,
    unique, closed under l -> -l and holds l = 0.  So -l sits at the reversed
    position of l (``_mirrored``), and l = 0 is the middle band (``zero_band``).
    """

    def __init__(self, N: int, entries: np.ndarray, bands: np.ndarray):
        entries = np.asarray(entries, dtype=complex)
        bands = np.asarray(bands, dtype=int)
        self.N = int(N)
        if self.N < 1:
            raise ValueError(f"truncation N must be >= 1, got {N}")
        self.jmodes = _jmodes(self.N)
        if entries.ndim != 3 or entries.shape[1:] != (2 * N, 2 * N):
            raise ValueError(f"entries must be band-stacked (bands, 2N, 2N) blocks, "
                             f"got {entries.shape} at N = {N}")
        if bands.ndim != 2 or bands.shape[0] != entries.shape[0]:
            raise ValueError("bands must hold one row l per entry block")
        rows = list(map(tuple, bands.tolist()))  # np.unique would import numpy.ma
        if not (all(x < y for x, y in zip(rows, rows[1:]))
                and np.array_equal(bands[::-1], -bands)):
            raise ValueError("bands must be sorted, unique and closed under l -> -l")
        # sorted, unique and closed: every band but l = 0 comes with its mirror
        if len(bands) % 2 == 0:
            raise ValueError("bands must hold l = 0")
        self.bands = bands
        self.d = bands.shape[1]
        self.entries = entries

    # -- structure ------------------------------------------------------

    @property
    def zero_band(self) -> int:
        """Index of the band l = 0, the middle one."""
        return len(self.bands) // 2

    def reversible_deviation(self) -> float:
        """sup |T^{-l,-j}_{-l0,-j0} + T^{l,j}_{l0,j0}|: zero for a reversible operator."""
        return float(np.max(np.abs(_mirrored(self.entries) + self.entries)))

    # -- algebra ----------------------------------------------------------

    def __matmul__(self, other: "LinearOperatorMatrix") -> "LinearOperatorMatrix":
        """Band product; output bands sorted, each summed in left-band order."""
        if self.N != other.N or self.d != other.d:
            raise ValueError("operator truncations do not match")
        npairs = len(self.bands) * len(other.bands)
        allk = (self.bands[:, None, :] + other.bands[None, :, :]).reshape(npairs, self.d)
        bands, inv = np.unique(allk, axis=0, return_inverse=True)
        inv = inv.reshape(len(self.bands), len(other.bands))
        entries = np.zeros((len(bands), 2 * self.N, 2 * self.N), dtype=complex)
        # one product buffer for all left bands: a fresh MB-sized temporary per
        # band made the loop up to 2.5x slower in page faults
        prod = np.empty_like(other.entries)
        for bi in range(len(self.bands)):
            # within a fixed left band the output keys are distinct, so a
            # fancy-indexed += is a safe scatter
            entries[inv[bi]] += np.matmul(self.entries[bi], other.entries, out=prod)
        return LinearOperatorMatrix(self.N, entries, bands)

    def __add__(self, other: "LinearOperatorMatrix") -> "LinearOperatorMatrix":
        """Band sum; output bands sorted, each the left block plus the right one."""
        if self.N != other.N or self.d != other.d:
            raise ValueError("operator truncations do not match")
        nl = len(self.bands)
        bands, inv = np.unique(np.concatenate([self.bands, other.bands]), axis=0,
                               return_inverse=True)
        inv = inv.reshape(-1)
        # -0.0 + x is x bit for bit; +0.0 would turn a -0.0 entry into +0.0
        entries = np.full((len(bands), 2 * self.N, 2 * self.N), complex(-0.0, -0.0))
        entries[inv[:nl]] += self.entries
        entries[inv[nl:]] += other.entries
        return LinearOperatorMatrix(self.N, entries, bands)


def offdiag_norm(op: LinearOperatorMatrix, s: float) -> float:
    """Off-diagonal (Toeplitz) norm: (sum_{l,m} <l,m>^{2s} sup_{j-k=m} |T^j_k(l)|^2)^{1/2}.

    The terms are summed one at a time, band by band and diagonal ascending.
    """
    diff = (op.jmodes[:, None] - op.jmodes[None, :]).ravel()
    order = np.argsort(diff, kind="stable")
    diags, starts = np.unique(diff[order], return_index=True)
    blocks = np.abs(op.entries).reshape(len(op.bands), diff.size)[:, order]
    sups = np.maximum.reduceat(blocks, starts, axis=1)
    w = np.maximum(np.abs(op.bands).sum(axis=1)[:, None], np.maximum(1, np.abs(diags)))
    # scalar (libm) powers: a vectorised pow may round differently
    weights = np.array([float(k) ** (2.0 * s) for k in range(int(w.max()) + 1)])
    terms = (weights[w] * sups ** 2).ravel()
    return float(np.sqrt(np.cumsum(terms)[-1]))
