"""Synthetic stand-ins for the paper's datasets (Section IV-A).

The real inputs — XGC's ``dpot`` (89.9 M triangles), GenASiS core-collapse
velocity (94.8 M triangles), CFD surface pressure (61.5 M triangles) — are
not distributable.  These generators reproduce the *structural features
each analytics measures*:

* ``xgc_dpot_field``  — smooth turbulent background with localized
  high-potential Gaussian blobs (what blob detection counts and sizes);
* ``genasis_velocity_field`` — spherical core-collapse velocity magnitude
  with an accretion-shock front and low-mode (SASI-like) angular
  perturbation (what the 2-D rendering visualises);
* ``cfd_pressure_field`` — stagnation high-pressure region at a leading
  edge over a smooth flow field (whose area and integrated force the CFD
  analytics reports).

Fields are smooth-plus-features, so the hierarchical decomposition
compresses them the way it compresses real simulation output.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import make_rng

__all__ = [
    "xgc_dpot_field",
    "xgc_dpot_volume",
    "genasis_velocity_field",
    "cfd_pressure_field",
    "field_time_series",
]


def field_time_series(
    initial: np.ndarray,
    steps: int,
    seed: int | np.random.Generator = 0,
    *,
    advection: tuple[int, int] = (1, 2),
    drift: float = 0.05,
    smoothness: float = 6.0,
) -> list[np.ndarray]:
    """Evolve a field into a slowly-changing time series.

    Each step advects the field by ``advection`` grid cells (periodic) and
    blends in ``drift`` × a fresh smooth perturbation — the gentle
    step-to-step evolution of simulation output that makes per-step
    analysis data similar but never identical.  Returns ``steps`` fields,
    the first being ``initial`` itself.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0.0 <= drift < 1.0:
        raise ValueError(f"drift must be in [0, 1), got {drift}")
    rng = make_rng(seed)
    fields = [np.asarray(initial, dtype=np.float64)]
    amplitude = float(fields[0].std())
    for _ in range(steps - 1):
        prev = fields[-1]
        advected = np.roll(prev, advection, axis=(0, 1))
        perturbation = amplitude * _turbulent_background(prev.shape, rng, smoothness)
        fields.append((1.0 - drift) * advected + drift * perturbation)
    return fields


def _turbulent_background(
    shape: tuple[int, int], rng: np.random.Generator, smoothness: float
) -> np.ndarray:
    """Gaussian-filtered white noise, normalised to unit standard deviation."""
    from scipy.ndimage import gaussian_filter

    noise = rng.standard_normal(shape)
    field = gaussian_filter(noise, sigma=smoothness, mode="wrap")
    std = field.std()
    return field / std if std > 0 else field


def xgc_dpot_field(
    shape: tuple[int, int] = (256, 256),
    seed: int | np.random.Generator = 0,
    *,
    num_blobs: int = 12,
    blob_amplitude: float = 5.0,
    blob_sigma_frac: float = 0.02,
    background_smoothness: float = 12.0,
) -> np.ndarray:
    """Electrostatic potential fluctuation field with coherent blobs.

    Blobs are Gaussian bumps of amplitude ``blob_amplitude`` × the
    background RMS, with radii ~``blob_sigma_frac`` × the domain size —
    the intermittent blob-filaments fusion scientists look for.
    """
    rng = make_rng(seed)
    field = _turbulent_background(shape, rng, background_smoothness)
    ny, nx = shape
    yy, xx = np.mgrid[0:ny, 0:nx]
    sigma = blob_sigma_frac * min(shape)
    # Keep blob centres away from the boundary so diameters are well defined.
    margin = int(4 * sigma) + 1
    for _ in range(num_blobs):
        cy = rng.integers(margin, ny - margin)
        cx = rng.integers(margin, nx - margin)
        amp = blob_amplitude * (0.8 + 0.4 * rng.random())
        s = sigma * (0.8 + 0.4 * rng.random())
        field += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s**2))
    return field


def xgc_dpot_volume(
    shape: tuple[int, int, int] = (64, 64, 64),
    seed: int | np.random.Generator = 0,
    *,
    num_blobs: int = 8,
    blob_amplitude: float = 5.0,
    blob_sigma_frac: float = 0.05,
    background_smoothness: float = 6.0,
) -> np.ndarray:
    """3-D electrostatic potential volume with coherent blob filaments.

    The volumetric counterpart of :func:`xgc_dpot_field` — the paper's
    datasets are 3-D meshes; this generator exercises the full pipeline's
    N-dimensional path (decomposition, ladders, and blob detection all
    operate on arbitrary-rank tensors).
    """
    from scipy.ndimage import gaussian_filter

    rng = make_rng(seed)
    noise = rng.standard_normal(shape)
    field = gaussian_filter(noise, sigma=background_smoothness, mode="wrap")
    std = field.std()
    if std > 0:
        field /= std
    nz, ny, nx = shape
    zz, yy, xx = np.mgrid[0:nz, 0:ny, 0:nx]
    sigma = blob_sigma_frac * min(shape)
    margin = int(3 * sigma) + 1
    for _ in range(num_blobs):
        cz = rng.integers(margin, nz - margin)
        cy = rng.integers(margin, ny - margin)
        cx = rng.integers(margin, nx - margin)
        amp = blob_amplitude * (0.8 + 0.4 * rng.random())
        s = sigma * (0.8 + 0.4 * rng.random())
        field += amp * np.exp(
            -((zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s**2)
        )
    return field


def genasis_velocity_field(
    shape: tuple[int, int] = (256, 256),
    seed: int | np.random.Generator = 0,
    *,
    shock_radius_frac: float = 0.35,
    infall_speed: float = 1.0,
    sasi_modes: int = 2,
    sasi_amplitude: float = 0.08,
) -> np.ndarray:
    """Velocity magnitude of a core-collapse with a standing accretion shock.

    Supersonic infall outside the shock (|v| ~ r^{-1/2}), abrupt
    deceleration inside, and a low-mode angular deformation of the shock
    surface (the stationary accretion shock instability GenASiS studies).
    """
    rng = make_rng(seed)
    ny, nx = shape
    yy, xx = np.mgrid[0:ny, 0:nx]
    cy, cx = (ny - 1) / 2.0, (nx - 1) / 2.0
    r = np.hypot(yy - cy, xx - cx) / (min(shape) / 2.0)
    theta = np.arctan2(yy - cy, xx - cx)
    phase = rng.uniform(0, 2 * np.pi)
    shock_r = shock_radius_frac * (1.0 + sasi_amplitude * np.cos(sasi_modes * theta + phase))
    outside = r >= shock_r
    v = np.empty(shape, dtype=np.float64)
    # Free-fall profile outside the shock; settled, slow flow inside.
    with np.errstate(divide="ignore"):
        v_out = infall_speed / np.sqrt(np.maximum(r, 1e-3))
    v_in = 0.15 * infall_speed * (r / np.maximum(shock_r, 1e-9)) ** 2
    v[outside] = v_out[outside]
    v[~outside] = v_in[~outside]
    # Mild post-shock turbulence.
    v += 0.03 * infall_speed * _turbulent_background(shape, rng, 4.0)
    return v


def cfd_pressure_field(
    shape: tuple[int, int] = (256, 256),
    seed: int | np.random.Generator = 0,
    *,
    stagnation_pressure: float = 4.0,
    front_position_frac: float = 0.25,
    front_width_frac: float = 0.06,
) -> np.ndarray:
    """Surface pressure near the front of a plane.

    A stagnation region of high pressure at the leading edge (around
    ``front_position_frac`` along x), decaying along the chord, over a
    smooth ambient field.  The analytics thresholds this to find the
    high-pressure area and its total force.
    """
    rng = make_rng(seed)
    ny, nx = shape
    yy, xx = np.mgrid[0:ny, 0:nx]
    x = xx / (nx - 1)
    y = (yy - (ny - 1) / 2.0) / (ny - 1)
    x0 = front_position_frac
    width = front_width_frac
    # Leading-edge stagnation bubble: strong in x, moderate spread in y.
    stagnation = stagnation_pressure * np.exp(
        -((x - x0) ** 2) / (2 * width**2) - (y**2) / (2 * (3 * width) ** 2)
    )
    # Suction (low pressure) region aft of the leading edge.
    suction = -0.8 * stagnation_pressure * np.exp(
        -((x - x0 - 4 * width) ** 2) / (2 * (2 * width) ** 2) - (y**2) / (2 * (4 * width) ** 2)
    )
    ambient = 0.05 * stagnation_pressure * _turbulent_background(shape, rng, 8.0)
    return stagnation + suction + ambient + 1.0
