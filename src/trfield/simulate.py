"""Field synthesis: exact Gaussian sampling, Hermitian spectral synthesis,
and moving-average Riemann sums driven by Gaussian or SaS noise.

Randomness comes from counter-based Philox streams keyed by
(seed, stream_id), so draws are reproducible and order-independent:
stream j feeds the noise of draw j, whatever the number of draws.
Exact draws on a line through the origin sum the field's stationary
increments, drawn by circulant embedding with one batched FFT per block
of draws.  Other exact draws, moving-average and stable synthesis
multiply one dense real matrix (Cholesky factor or kernel matrix) by
per-draw noise columns; one engine, ``_draw_products``, runs them all.
It builds a kernel matrix in spans of integration nodes (columns) and
adds one GEMM per span and block of draws to the sums.  Spectral
synthesis builds no matrix: both grids are arithmetic progressions, so
its frequency sum is a chirp-z transform on the line and a chain of small
per-axis phase matrices on product grids.

Realizations persist in a small binary container: magic ``TRF1``, a
little-endian uint32 header length, a UTF-8 JSON header, then the
float64 little-endian payload (row-major, sites x n).
"""

import functools
import json
import math
import struct

import numpy as np

from . import _fast
from .covariance import CovarianceError, IsotropicGaussianSpec
from .kernels import FieldSpec, KernelError, MeasureSpec, existence_check

__all__ = [
    "SimulationError", "SimulationToleranceError", "SimulationConfigError",
    "GridSpec", "Realization", "philox_stream", "sas_sample", "gaussian_exact",
    "gaussian_exact_many", "spectral_synthesis", "ma_synthesis",
    "tfsm_synthesis", "sas_truncation_report", "tfsm_truncation_report",
    "truncation_margin",
    "tempering_radius", "symmetric_freq_grid", "spectral_tail_cutoff",
]

EXACT_SITE_CAP = 16384              # sites x n of the Gram route
_EMBED_CLIP = 1e-8                  # clip eigenvalues >= -1e-8 max
_MAGIC = b"TRF1"
_NOISE_BLOCK_BYTES = 32 << 20       # noise (spectral: work) per block
_KERNEL_BLOCK_BYTES = 2 << 20       # kernel columns (nodes) per span


class SimulationError(RuntimeError):
    pass


class SimulationToleranceError(SimulationError):
    """A numerical tolerance failed during synthesis (the CLI exits 4)."""


class SimulationConfigError(SimulationError):
    """A grid or a seed that violates the config schema (the CLI exits 2)."""


def _mesh(axes):
    """(N, d) points of the product of 1-d ``axes``, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


class GridSpec:
    """Regular product grid: per-axis [lo, hi] ranges and point counts."""

    def __init__(self, ranges, counts):
        self.ranges = [(float(lo), float(hi)) for lo, hi in ranges]
        self.counts = [int(c) for c in counts]
        if len(self.ranges) != len(self.counts):
            raise SimulationConfigError("ranges and counts length mismatch")
        if any(c < 2 for c in self.counts):
            raise SimulationConfigError("point counts must be >= 2")
        if not all(math.isfinite(lo) and math.isfinite(hi) and lo < hi
                   for lo, hi in self.ranges):
            raise SimulationConfigError("empty or non-finite grid range")

    @property
    def d(self):
        return len(self.ranges)

    @property
    def n_sites(self):
        return int(np.prod(self.counts))

    @property
    def spacings(self):
        return [(hi - lo) / (c - 1) for (lo, hi), c in
                zip(self.ranges, self.counts)]

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    def axes(self):
        return [np.linspace(lo, hi, c) for (lo, hi), c in
                zip(self.ranges, self.counts)]

    def sites(self):
        """(N, d) site coordinates, row-major (last axis fastest)."""
        return _mesh(self.axes())

    def midpoints(self):
        """(M, d) cell midpoints (offset grid used for Riemann sums)."""
        return _mesh([lo + (np.arange(c - 1) + 0.5) * (hi - lo) / (c - 1)
                      for (lo, hi), c in zip(self.ranges, self.counts)])

    @functools.cached_property
    def _csv_sites(self):
        """Each site's CSV columns "x0,...," as np.savetxt prints them."""
        return ((("%.18e," * self.d + "\n") * self.n_sites) % tuple(
            self.sites().ravel().tolist())).splitlines()

    def to_json(self):
        return {"ranges": [list(r) for r in self.ranges],
                "counts": self.counts}

    @classmethod
    def from_json(cls, doc):
        """Grid from ``{"ranges": [[lo, hi], ...], "counts": [n, ...]}``:
        ranges are pairs of JSON numbers, counts JSON integers (no bool,
        float or string); anything else raises SimulationConfigError."""
        if not (isinstance(doc, dict) and "ranges" in doc and "counts" in doc):
            raise SimulationConfigError(
                f"grid must be an object with 'ranges' and 'counts', "
                f"got {doc!r}")
        ranges, counts = doc["ranges"], doc["counts"]
        if not (isinstance(ranges, list) and all(
                isinstance(r, list) and len(r) == 2
                and all(type(v) in (int, float) for v in r) for r in ranges)):
            raise SimulationConfigError(
                f"grid ranges must be a list of [lo, hi] numbers, "
                f"got {ranges!r}")
        if not (isinstance(counts, list)
                and all(type(c) is int for c in counts)):
            raise SimulationConfigError(
                f"grid counts must be a list of integers, got {counts!r}")
        return cls(ranges, counts)


class Realization:
    """A sampled vector field on a grid with reproducibility provenance."""

    def __init__(self, grid, values, provenance):
        self.grid = grid
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if not np.all(np.isfinite(self.values)):
            raise SimulationError("realization contains non-finite values")
        self.provenance = dict(provenance)

    @property
    def n(self):
        return self.values.shape[1]

    def to_bytes(self):
        """The ``.trf`` file: magic, header length, JSON header, values."""
        header = {
            "format": 1,
            "grid": self.grid.to_json(),
            "n": self.n,
            "dtype": "<f8",
            "shape": list(self.values.shape),
            "provenance": self.provenance,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        return b"".join((_MAGIC, struct.pack("<I", len(blob)), blob,
                         self.values.astype("<f8").tobytes(order="C")))

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise SimulationError(f"bad magic {magic!r} in {path}")
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen).decode("utf-8"))
            payload = fh.read()
        shape = tuple(header["shape"])
        values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        return cls(GridSpec.from_json(header["grid"]), values,
                   header["provenance"])

    def to_csv_bytes(self):
        """Sites and values as CSV, one row per site: the bytes of
        np.savetxt(..., delimiter=",", header=head, comments="")."""
        head = ",".join([f"x{i}" for i in range(self.grid.d)]
                        + [f"v{i}" for i in range(self.n)])
        row = ",".join(["%.18e"] * self.n) + "\n"
        body = (row.join(self.grid._csv_sites) + row) % tuple(
            self.values.ravel().tolist())
        return (head + "\n" + body).encode("ascii")

    def to_csv(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_csv_bytes())


def _check_seed(seed):
    """``seed`` if 0 <= seed < 2^64; else SimulationConfigError."""
    if not 0 <= seed < 2 ** 64:
        raise SimulationConfigError(
            f"seed {seed} outside the range [0, 2^64)")
    return seed


def philox_stream(seed, stream_id):
    """Philox4x64 generator keyed by (seed, stream); 0 <= seed < 2^64."""
    _check_seed(seed)
    bg = np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64))
    return np.random.Generator(bg)


def sas_sample(alpha, scale, seed, count, stream_id=0):
    """Symmetric alpha-stable variates by the Chambers-Mallows-Stuck
    transform; chf exp(-|scale u|^alpha) (alpha = 2 gives N(0, 2 scale^2))."""
    if not 0 < alpha <= 2:
        raise SimulationError("alpha must lie in (0, 2]")
    if scale <= 0:
        raise SimulationError("scale must be positive")
    return scale * _cms_noise(philox_stream(seed, stream_id), alpha, count)


def _cms_noise(gen, alpha, count):
    """Unit-scale SaS(alpha) variates from ``gen`` (CMS transform)."""
    theta = (gen.random(count) - 0.5) * math.pi
    return _fast.cms_batch(theta, gen.standard_exponential(count), alpha)


# ---------------------------------------------------------------------------

def _factor_gram(gram, n_sites_total):
    """Cholesky factor with escalating diagonal jitter (cap 1e-8 tr/N).

    A row with a zero diagonal (a site pinned at the origin) is factored as
    a unit row and then zeroed, so it needs no jitter and stays exactly 0.
    Returns (factor, jitter), ``jitter`` being the amount added to every
    diagonal entry (0.0 when the Gram factors as it is).
    """
    trace = float(np.trace(gram))
    cap = 1e-8 * trace / max(n_sites_total, 1)
    zero_rows = np.flatnonzero(np.diag(gram) == 0.0)
    gram[zero_rows, zero_rows] = 1.0
    try:
        for jitter in (0.0, 1e-14, 1e-12, 1e-10):
            bump = jitter * trace / max(n_sites_total, 1)
            if bump > cap and jitter > 0:
                break
            try:
                chol = np.linalg.cholesky(
                    gram + bump * np.eye(gram.shape[0]) if bump else gram)
            except np.linalg.LinAlgError:
                continue
            chol[zero_rows, :] = 0.0
            return chol, bump
    finally:
        gram[zero_rows, zero_rows] = 0.0
    raise SimulationToleranceError(
        "gram factorization failed at maximal jitter")


def _increment_embedding(v_pos, h, n_sites):
    """Circulant embedding of the increments of a pinned scalar field on a
    line of ``n_sites`` sites at spacing h (Davies & Harte 1987; Wood &
    Chan 1994).

    The increments D_k = X((k+1)h) - X(kh) are stationary, with
    gamma(k) = (V((k+1)h) + V(|k-1|h)) / 2 - V(kh).  gamma(0..M) and its
    mirror gamma(M-1..1) are the first row of a circulant of length 2M,
    M = _fft_size(n_sites - 1), whose eigenvalues are one real FFT.  The
    one at frequency 0, the row's sum, telescopes to (V((M+1)h) -
    V((M-1)h)) / 2, about 0 for a tempered field, and is set so: the FFT
    leaves only rounding there (-3.5e-10 of the largest on a 2^20 + 1-site
    TFBM line).  An embedding whose eigenvalues all lie at or above
    -``_EMBED_CLIP`` of the largest is taken, any negative ones clipped to
    0.  The embedding is not enlarged: what remains negative comes from
    V's quadrature error, which a longer embedding does not cure.  Returns
    (sqrt(eigenvalues), or None if the embedding is more negative than
    that, and its record: length, minimum eigenvalue over the largest,
    clipped share of the eigenvalue sum).
    """
    m = _fft_size(n_sites - 1)
    v = np.concatenate([[0.0], v_pos(np.arange(1, m + 2) * h)[:, 0, 0]])
    gamma = 0.5 * (v[2:] + v[:-2]) - v[1:-1]            # gamma(1..m)
    gamma = np.concatenate([[v[1]], gamma])
    eig = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    eig[0] = 0.5 * (v[m + 1] - v[m - 1])
    low, top = float(eig.min()), float(eig.max())
    # each interior eigenvalue stands for two of the circulant's 2M
    weight = np.full(eig.size, 2.0)
    weight[[0, -1]] = 1.0
    record = {"embedding_length": 2 * m,
              "min_eigenvalue_ratio": low / top,
              "clipped_share": float(weight @ np.maximum(-eig, 0.0)
                                     / (weight @ np.maximum(eig, 0.0)))}
    if low < -_EMBED_CLIP * top:
        return None, record
    return np.sqrt(np.maximum(eig, 0.0)), record


def _circulant_draws(sqrt_eig, n_sites, origin, seed, n_draws):
    """(n_draws, n_sites) line draws from a circulant embedding's
    sqrt(eigenvalues) (``_increment_embedding``), exactly 0 at the site
    ``origin``.

    Draw j reads 2M normals from stream j alone: the real parts of the
    M + 1 spectral coefficients, then the imaginary parts of the M - 1
    inner ones, each scaled so that one inverse real FFT of length 2M has
    the circulant's covariance; the first n_sites - 1 values are the
    increments, summed outward from the origin.  A block of draws holds
    about ``_NOISE_BLOCK_BYTES`` of work, 32 M bytes per draw.
    """
    m = sqrt_eig.size - 1
    amp = sqrt_eig * math.sqrt(m)
    amp[[0, -1]] *= math.sqrt(2.0)
    block = max(1, min(n_draws, _NOISE_BLOCK_BYTES // (32 * m)))
    coef = np.zeros((block, m + 1), complex)
    out = np.empty((n_draws, n_sites))
    for start in range(0, n_draws, block):
        take = min(block, n_draws - start)
        for i in range(take):
            z = philox_stream(seed, start + i).standard_normal(2 * m)
            coef[i].real = z[:m + 1]
            coef[i, 1:m].imag = z[m + 1:]
        coef[:take] *= amp
        inc = np.fft.irfft(coef[:take], 2 * m)[:, :n_sites - 1]
        x = out[start:start + take]
        x[:, origin] = 0.0
        np.cumsum(inc[:, origin:], axis=1, out=x[:, origin + 1:])
        if origin:
            x[:, origin - 1::-1] = -np.cumsum(inc[:, origin - 1::-1], axis=1)
    return out


def _origin_index(grid):
    """Row of the origin in ``grid.sites()`` if it is a site, else None."""
    zero = [np.flatnonzero(x == 0.0) for x in grid.axes()]
    return None if any(z.size == 0 for z in zero) else int(
        np.ravel_multi_index([z[0] for z in zero], grid.counts))


def gaussian_exact_many(cov_model, grid, seed, n_draws):
    """Exact Gaussian draws from the covariance model on a grid.

    Two routes, chosen here.  A 1-d grid that has the origin as a site,
    for a scalar model with a ``radial_variance`` V, takes the circulant
    route: the stationary increments of X come from one circulant
    embedding (``_increment_embedding``) and one batched FFT per block of
    draws (``_circulant_draws``), in O(N log N) time and O(N) memory at
    any size.  Everything else (d >= 2, n >= 2, an origin off the grid, a
    model without V, an embedding more negative than its clip tolerance)
    takes the Gram route: the Cholesky factor of the (N n)^2 Gram, within
    ``EXACT_SITE_CAP``.  An indefinite embedding past the cap raises
    SimulationToleranceError.

    Provenance records ``algorithm`` ("circulant" or "cholesky"); the
    embedding's length, minimum eigenvalue over the largest and clipped
    share wherever an embedding was made; and the diagonal ``jitter`` of
    the Cholesky route.
    """
    n = cov_model.spec.n
    v_pos = getattr(cov_model, "radial_variance", None)
    origin = _origin_index(grid)
    meta = {"method": "gaussian_exact", "seed": int(seed),
            "spec": cov_model.spec.to_json(), "grid": grid.to_json()}
    if grid.d == n == 1 and origin is not None and v_pos is not None:
        sqrt_eig, record = _increment_embedding(
            v_pos, grid.spacings[0], grid.n_sites)
        meta.update(record)
        if sqrt_eig is not None:
            vals = _circulant_draws(sqrt_eig, grid.n_sites, origin, seed,
                                    n_draws)
            meta["algorithm"] = "circulant"
            return [Realization(grid, vals[j], {**meta, "draw": j})
                    for j in range(n_draws)]
        if grid.n_sites > EXACT_SITE_CAP:
            raise SimulationToleranceError(
                f"circulant embedding: minimum eigenvalue "
                f"{record['min_eigenvalue_ratio']:.3e} of the largest, "
                f"below the clip tolerance -{_EMBED_CLIP:g} of it, at "
                f"embedding length {record['embedding_length']}; "
                f"{grid.n_sites} sites exceed the Gram route's cap "
                f"{EXACT_SITE_CAP}")
    if grid.n_sites * n > EXACT_SITE_CAP:
        raise SimulationError(
            f"{grid.n_sites} sites exceeds exact-synthesis cap "
            f"{EXACT_SITE_CAP}")
    gram = cov_model.gram(grid.sites(), check_psd=False)
    chol, jitter = _factor_gram(gram, grid.n_sites)
    rows = len(chol)
    vals = _draw_products(chol, rows, rows,
                          lambda gen: gen.standard_normal(rows), seed, n_draws)
    meta.update(algorithm="cholesky", jitter=jitter)
    return [Realization(grid, vals[:, j, 0].reshape(grid.n_sites, n),
                        {**meta, "draw": j}) for j in range(n_draws)]


def gaussian_exact(cov_model, grid, seed):
    return gaussian_exact_many(cov_model, grid, seed, 1)[0]


# ---------------------------------------------------------------------------

def _freq_axes(xi_max, count_per_axis, d):
    """Axes of the half-space midpoint grid, d - 1 full axes of 2K points
    and a last half axis of K, and the step xi_max / K."""
    if xi_max <= 0 or count_per_axis < 2:
        raise SimulationError("bad frequency grid parameters")
    step = xi_max / count_per_axis
    half = (np.arange(count_per_axis) + 0.5) * step
    return [np.concatenate([-half[::-1], half])] * (d - 1) + [half], step


def symmetric_freq_grid(xi_max, count_per_axis, d):
    """Half-space midpoint frequency grid; with its mirror it is a
    symmetric grid excluding 0.

    Returns (xi_half, cell_volume): full sums run over xi_half and
    -xi_half.
    """
    axes, step = _freq_axes(xi_max, count_per_axis, d)
    return _mesh(axes), step ** d


def spectral_tail_cutoff(p_decay, lam, d, tail_mass=1e-4):
    """Frequency cutoff so the analytic power-law tail bound of the
    variance integrand stays below ``tail_mass`` of the total."""
    if 2 * p_decay <= d:
        raise SimulationError("spectral density tail is not integrable")
    return max(1.0, lam) * tail_mass ** (-1.0 / (2.0 * p_decay - d))


def _cis_int(a, k):
    """exp(-i a k) for integer-valued float ``k`` < 2^52.  The rounding
    error of the product a k is restored by Dekker's two-product, so the
    phase stays exact however large a k grows."""
    p = a * k
    big = 134217729.0 * a                   # Veltkamp split, 26 bits each
    a_hi = big - (big - a)
    a_lo = a - a_hi
    k_lo = np.mod(k, 67108864.0)            # k = k_hi + k_lo, 26 bits each
    k_hi = k - k_lo
    err = (((a_hi * k_hi - p) + a_hi * k_lo) + a_lo * k_hi) + a_lo * k_lo
    return np.exp(-1j * p) * np.exp(-1j * err)


def _fft_size(n):
    """A 2^a 3^b 5^c >= n (the smallest up to 2^a 3^13 5^8): a length
    numpy's FFT runs fast."""
    return min(p << (-(-n // p) - 1).bit_length()
               for p in (3 ** b * 5 ** c for b in range(14) for c in range(9)))


def _line_sum(coef, x0, h, n, xi0, dxi):
    """X_i = sum_m coef[..., m] e^{-i (x0 + i h)(xi0 + m dxi)} for i < n.

    A Bluestein chirp-z transform (Rabiner, Schafer & Rader 1969): with
    w_k = e^{-i h dxi k^2 / 2}, e^{-i h dxi i m} = w_i w_m conj(w_{i-m}),
    so every row of ``coef`` costs one FFT convolution of length
    >= n + M - 1.  The chirp phases come from integer k^2 (``_cis_int``).
    """
    m = coef.shape[-1]
    k = np.arange(max(n, m), dtype=float)
    chirp = _cis_int(0.5 * h * dxi, k * k)
    size = _fft_size(n + m - 1)
    kernel = np.zeros(size, complex)
    kernel[:n] = np.conj(chirp[:n])
    kernel[size - m + 1:] = np.conj(chirp[m - 1:0:-1])
    pre = np.exp(-1j * x0 * (xi0 + dxi * k[:m])) * chirp[:m]
    spec = np.fft.fft(coef * pre, size)
    spec *= np.fft.fft(kernel)
    out = np.fft.ifft(spec)[..., :n]
    out *= np.exp(-1j * (h * xi0) * k[:n]) * chirp[:n]
    return out


def _same_dimension(what, spec, *grids):
    """SimulationConfigError unless every grid has the field's dimension."""
    if any(grid.d != spec.d for grid in grids):
        raise SimulationConfigError(
            f"{what}: the field has d = {spec.d}, the grids have "
            f"d = {[grid.d for grid in grids]}")


def spectral_synthesis(spec, grid, seed, n_draws=1, xi_max=None,
                       count_per_axis=512):
    """Hermitian-symmetric Riemann-sum synthesis of a harmonizable field.

    ``spec`` is an IsotropicGaussianSpec or a Gaussian FieldSpec of
    flavor H.  The frequency grid is ``symmetric_freq_grid(xi_max,
    count_per_axis, d)``; ``xi_max`` defaults to the dyadic cutoff from
    the density's power-law tail (``spectral_tail_cutoff``).

    Draw j takes z from stream j and c(xi) = sqrt(dv) A(xi) z on the half
    grid, c(-xi) = conj c(xi).  Its sum over +-xi is 2 Re (X(x) - X(0))
    with X(x) = sum c e^{-i<x,xi>} over the half grid.  X is exact on the
    whole site grid without a (sites, frequencies) phase matrix: at d = 1
    one chirp-z transform (``_line_sum``) per block of draws, at d >= 2
    one small phase matrix e^{-i xi_a x_a} per axis.  X(0) is X's own
    value at the origin when the origin is a grid site, so the draw is
    exactly 0 there, and sum c otherwise.  A block of draws holds about
    ``_NOISE_BLOCK_BYTES`` of work, 16 n (M + N) bytes per draw.
    """
    _same_dimension("spectral synthesis", spec, grid)
    density, n, p_decay, lam = _spectral_density_for(spec)
    if xi_max is None:
        xi_max = spectral_tail_cutoff(p_decay, lam, grid.d)
    freq_axes, step = _freq_axes(xi_max, count_per_axis, grid.d)
    dvol = step ** grid.d
    # amp[j, i, m] = sqrt(dv / 2) A(xi_m)[i, j]: z = g_re + i g_im below
    amp = (density(_mesh(freq_axes)) * math.sqrt(0.5 * dvol)).transpose(
        2, 1, 0).copy()
    m = amp.shape[2]
    site_axes = grid.axes()
    if grid.d == 1:
        def transform(c):
            return _line_sum(c, grid.ranges[0][0], grid.spacings[0],
                             grid.counts[0], 0.5 * step, step)
    else:
        # (m_a, n_a) phase matrices; each contraction appends its n_a axis
        phases = [np.exp(-1j * np.outer(xi, x))
                  for x, xi in zip(site_axes, freq_axes)]

        def transform(c):
            c = c.reshape(c.shape[:2] + tuple(len(a) for a in freq_axes))
            for phase in phases:
                c = np.tensordot(c, phase, axes=(2, 0))
            return c.reshape(c.shape[:2] + (-1,))
    origin = _origin_index(grid)

    vals = np.empty((grid.n_sites, n_draws, n))
    block = max(1, min(n_draws, _NOISE_BLOCK_BYTES
                       // (16 * n * (m + grid.n_sites))))
    for start in range(0, n_draws, block):
        take = min(block, n_draws - start)
        coef = np.empty((take, n, m), complex)
        for i in range(take):
            z = philox_stream(seed, start + i).standard_normal(
                (m, n, 2)).view(complex)[..., 0]             # (M, n)
            np.multiply(amp[0], z[:, 0], out=coef[i])
            for j in range(1, n):
                coef[i] += amp[j] * z[:, j]
        x = transform(coef)                                 # (take, n, N)
        at0 = coef.sum(axis=-1) if origin is None else x[..., origin]
        vals[:, start:start + take] = 2.0 * (
            x.real - at0.real[..., None]).transpose(2, 0, 1)
    meta = {"method": "spectral_synthesis", "seed": int(seed),
            "spec": spec.to_json(), "grid": grid.to_json(),
            "freq_points": int(m), "cell_volume": dvol}
    out = [Realization(grid, vals[:, j], {**meta, "draw": j})
           for j in range(n_draws)]
    return out if n_draws > 1 else out[0]


def _spectral_density_for(spec):
    from .covariance import (ibtofbf_spectral_density,
                             itofbf_spectral_density)
    if isinstance(spec, IsotropicGaussianSpec):
        fn = itofbf_spectral_density if spec.variant == "ITOFBF" \
            else ibtofbf_spectral_density
        p_decay = spec.d / 2.0 + float(np.min(spec.h)) \
            if spec.variant == "ITOFBF" else 2.0 * float(np.min(spec.h))
        lam = spec.lambda_ if spec.variant == "ITOFBF" else spec.lambda_ ** 2

        return functools.partial(fn, spec), spec.n, p_decay, max(lam, 1e-6)
    if isinstance(spec, FieldSpec):
        if spec.flavor != "H":
            raise SimulationError("spectral synthesis needs flavor H")
        if spec.measure.variant != "gaussian":
            raise SimulationError(
                "harmonizable synthesis is implemented for the Gaussian "
                "measure only")

        def density(xi_arr):
            base = spec.lambda_ + spec.phi.batch(xi_arr)
            ph = spec.power_h.batch(1.0 / base)
            pq = spec.power_qb.batch(1.0 / base)
            return np.einsum("mij,mjk->mik", ph, pq)

        p_decay = spec.h_matrix.varpi + spec.q * spec.measure.varpi_b
        return density, spec.n, p_decay, max(spec.lambda_, 1e-6)
    raise SimulationError(f"unsupported spec type {type(spec)!r}")


# ---------------------------------------------------------------------------

def _measure_noise(measure, dvol, m_nodes):
    """Per-draw noise increments per cell of the first measure coordinate:
    Gaussian N(0, dvol) (the alpha = 2 CMS transform over sqrt(2)) or SaS
    with scale dvol^{1/alpha}."""
    if measure.variant == "gaussian":
        return lambda gen: (_cms_noise(gen, 2.0, m_nodes) * math.sqrt(dvol)
                            / math.sqrt(2.0))
    alpha = measure.alphas[0]
    return lambda gen: _cms_noise(gen, alpha, m_nodes) * dvol ** (1.0 / alpha)


def _draw_products(kernel, rows, m, draw_noise, seed, n_draws, k=1):
    """(rows, n_draws, k) products G @ draw_noise(philox_stream(seed, j)).

    ``kernel`` is the (rows, m) matrix G, held whole (one span), or a
    builder ``kernel(c0, c1)`` of its columns c0:c1, the integration nodes
    c0:c1, called over even spans of at most ``_KERNEL_BLOCK_BYTES`` once
    per block of draws (so once per call when the noise fits one block);
    G is never held whole.  ``draw_noise`` returns draw j's (m, k) noise
    columns, drawn one draw at a time (whole-block temporaries leave the
    cache) into a ``_NOISE_BLOCK_BYTES`` matrix W; one GEMM per span adds
    G[:, c0:c1] @ W[c0:c1] to the block's sums.
    """
    block = max(1, min(n_draws, _NOISE_BLOCK_BYTES // (8 * m * k)))
    n_spans = -(-m // max(1, _KERNEL_BLOCK_BYTES // (8 * rows))) \
        if callable(kernel) else 1
    step = -(-m // n_spans)
    dm = np.empty((block, k, m))
    out = np.empty((rows, n_draws, k))
    for start in range(0, n_draws, block):
        take = min(block, n_draws - start)
        for i in range(take):
            noise = draw_noise(philox_stream(seed, start + i))
            dm[i] = np.reshape(noise, (m, k)).T
        w = dm[:take].reshape(take * k, m)
        sums = out[:, start:start + take].reshape(rows, take * k)
        for c0 in range(0, m, step):  # each span freed before the next
            c1 = min(c0 + step, m)
            part = (kernel(c0, c1) if callable(kernel) else kernel) \
                @ w[:, c0:c1].T
            if c0:
                sums += part
            else:
                sums[...] = part
            del part                  # before the next span is built
    return out


def tempering_radius(spec):
    """Effective support radius of the tempered kernel: the exponential
    factor is below 1e-10 at phi-distance R (Bessel flavor decays at half
    the exponential rate; eta* = 0.5)."""
    m_phi = spec.phi.extrema()[0]
    if spec.lambda_ <= 0 or m_phi <= 0:
        raise SimulationError("tempering radius needs lambda > 0, m_phi > 0")
    base = 2.0 * math.log(1e10) / (spec.lambda_ * m_phi)
    return base if spec.flavor == "MA" else base / 0.5


def truncation_margin(spec, grid, integration_grid):
    """min over sites/axes of (covered distance) / (tempering radius)."""
    r_eff = tempering_radius(spec)
    sites = grid.sites()
    lo = np.array([r[0] for r in integration_grid.ranges])
    hi = np.array([r[1] for r in integration_grid.ranges])
    cover = np.minimum(sites.min(axis=0) - lo, hi - sites.max(axis=0))
    return float(np.min(cover) / r_eff)


def _ma_kernel_matrix(spec, sites, nodes):
    """Scalar-field kernel values over sites x integration nodes."""
    if spec.n != 1:
        raise SimulationError("Riemann-sum synthesis implemented for n = 1")
    nu = float(spec.exponent.entries[0, 0])
    if spec.flavor == "MA" and spec.d == 1 and \
            spec.phi.variant == "euclidean":
        return _fast.ma_matrix_1d(sites[:, 0], nodes[:, 0], nu, spec.lambda_)
    # generic path through phi, assembled in the buffer of the site term
    if spec.flavor == "MA":
        def term(ph):
            return _fast._tempered_power(ph, nu, spec.lambda_,
                                         np.empty_like(ph))
    else:
        from .kernels import _bessel_power_term
        from .specfun import bessel_k_batch

        def term(ph):
            out = np.zeros_like(ph)
            pos = ph > 0
            out[pos] = bessel_k_batch(nu, spec.lambda_ * ph[pos]) \
                * ph[pos] ** nu
            if not np.all(pos):         # the phi = 0 limit, where defined
                out[~pos] = _bessel_power_term(spec, 0.0)[0, 0]
            return out
    return _fast._pin(term(spec.phi.pairwise(sites, nodes)),
                      term(spec.phi.batch(-nodes)), sites)


def _truncation(rows, covered, dvol, alpha, rate, nu_abs, d, sites):
    """Largest estimated share of L^alpha mass outside the integration
    grid over kernel ``rows`` (one per site in ``sites``): the inside mass
    is the Riemann sum of |kernel|^alpha, the outside part a crude
    exponential-envelope bound (decay ``rate``, power nu_abs) integrated
    beyond each site's ``covered`` distance."""
    inside = np.sum(np.abs(rows) ** alpha, axis=1) * dvol
    expo = -rate * covered + (alpha * nu_abs + d - 1) * np.log(
        np.maximum(covered, 1.0))
    bound_out = 2.0 * d * np.exp(np.maximum(expo, -745.0)) / rate
    fraction = bound_out / np.maximum(inside + bound_out, 1e-300)
    i = int(np.argmax(fraction))
    return {"alpha": alpha, "site": sites[i].tolist(),
            "inside_mass": float(inside[i]),
            "outside_bound": float(bound_out[i]),
            "fraction": float(fraction[i])}


def sas_truncation_report(spec, grid, integration_grid):
    """Estimated L^alpha mass neglected outside the integration grid, at
    the grid's corner sites other than the origin (the least covered ones;
    the pinned kernel vanishes at the origin) and for the worst of them.
    """
    _same_dimension("SaS truncation report", spec, grid, integration_grid)
    alpha = min(spec.measure.alphas) if spec.measure.alphas else 2.0
    corners = _mesh([[lo, hi] for lo, hi in grid.ranges])
    corners = corners[~np.all(corners == 0.0, axis=1)]
    lo = np.array([r[0] for r in integration_grid.ranges])
    hi = np.array([r[1] for r in integration_grid.ranges])
    covered = np.min(np.minimum(corners - lo, hi - corners), axis=1)
    g = _ma_kernel_matrix(spec, corners, integration_grid.midpoints())
    return _truncation(g, covered, integration_grid.cell_volume, alpha,
                       alpha * spec.lambda_ * spec.phi.extrema()[0],
                       abs(float(spec.exponent.entries[0, 0])), spec.d,
                       corners)


def ma_synthesis(spec, grid, integration_grid, seed, n_draws=1,
                 require_coverage=True):
    """Riemann-sum synthesis of a moving-average field (n = 1).

    Increments are i.i.d. per midpoint cell: Gaussian with variance
    dvol or per-coordinate SaS with scale dvol^{1/alpha}; the Gaussian
    route reuses the alpha = 2 CMS transform (scaled by 1/sqrt(2)), so
    with the same seed the sas(alpha=2) output is exactly sqrt(2) times
    the gaussian output.
    """
    _same_dimension("ma synthesis", spec, grid, integration_grid)
    report = existence_check(spec)
    if not report.ok:
        raise SimulationError(f"existence check failed: {report.margins}")
    if spec.flavor not in ("MA", "MA_B"):
        raise SimulationError("ma_synthesis needs flavor MA or MA_B")
    margin = truncation_margin(spec, grid, integration_grid)
    if require_coverage and margin < 1.0:
        raise SimulationError(
            f"integration grid covers only {margin:.2f} of the tempering "
            "radius; enlarge it or pass require_coverage=False")
    sites, nodes = grid.sites(), integration_grid.midpoints()
    m = nodes.shape[0]
    sums = _draw_products(
        lambda c0, c1: _ma_kernel_matrix(spec, sites, nodes[c0:c1]),
        sites.shape[0], m,
        _measure_noise(spec.measure, integration_grid.cell_volume, m),
        seed, n_draws)
    meta = {"method": "ma_synthesis", "seed": int(seed),
            "spec": spec.to_json(), "grid": grid.to_json(),
            "integration_grid": integration_grid.to_json(),
            "truncation_margin": margin}
    out = [Realization(grid, sums[:, j], {**meta, "draw": j})
           for j in range(n_draws)]
    return out if n_draws > 1 else out[0]


def _tfsm_exponent(hurst, alpha, lam, integration_grid):
    """H - 1/alpha after checking a 1-d integration grid, H > 0, alpha in
    (0, 2] and lambda > 0 (finite); else SimulationConfigError."""
    if integration_grid.d != 1:
        raise SimulationConfigError(
            f"tfsm: the integration grid must be 1-d, got "
            f"d = {integration_grid.d}")
    for name, value, ok in (("hurst", hurst, hurst > 0),
                            ("alpha", alpha, 0 < alpha <= 2),
                            ("lambda", lam, lam > 0)):
        if not (ok and math.isfinite(value)):
            raise SimulationConfigError(
                f"tfsm: {name} = {value!r} is outside H > 0, "
                "alpha in (0, 2], lambda > 0")
    return hurst - 1.0 / alpha


def tfsm_truncation_report(hurst, alpha, lam, times, integration_grid):
    """``sas_truncation_report`` for the one-sided kernel: the estimated
    L^alpha mass neglected below the integration grid, at the least and
    the greatest of ``times`` other than 0.  A grid that ends below
    max(times, 0) misses the kernel's support near y = t and raises
    SimulationConfigError."""
    expo = _tfsm_exponent(hurst, alpha, lam, integration_grid)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    (lo, hi), = integration_grid.ranges
    if hi < max(times.max(), 0.0):
        raise SimulationConfigError(
            f"tfsm: the integration grid ends at {hi!r}, below "
            f"max(times, 0) = {max(times.max(), 0.0)!r}")
    ends = np.unique([times.min(), times.max()])
    ends = ends[ends != 0.0]
    g = _fast.tfsm_matrix(ends, integration_grid.midpoints()[:, 0], expo,
                          lam)
    return _truncation(g, np.minimum(ends, 0.0) - lo,
                       integration_grid.cell_volume, alpha, alpha * lam,
                       abs(expo), 1, ends[:, None])


def tfsm_synthesis(hurst, alpha, lam, times, integration_grid, seed,
                   n_draws=1):
    """One-sided tempered stable motion on the line by Riemann sums.

    Returns an (n_draws, n_times) array; ``times`` are the observation
    points, ``integration_grid`` a 1-d GridSpec covering the kernel
    support (y <= max(times), down to the tempering radius).  Cells get
    SaS(alpha) noise of scale dy^{1/alpha}, draw j from stream j.  H <= 0,
    alpha outside (0, 2], lambda <= 0 and another grid dimension raise
    SimulationConfigError.
    """
    expo = _tfsm_exponent(hurst, alpha, lam, integration_grid)
    times = np.atleast_1d(times)
    nodes = integration_grid.midpoints()[:, 0]
    noise = _measure_noise(MeasureSpec("sas", alphas=[alpha]),
                           integration_grid.cell_volume, nodes.shape[0])
    return _draw_products(
        lambda c0, c1: _fast.tfsm_matrix(times, nodes[c0:c1], expo, lam),
        times.shape[0], nodes.shape[0], noise, seed, n_draws)[:, :, 0].T
