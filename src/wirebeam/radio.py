"""Transmit gain of a rectangular phased array and the free-space link budget.

The transmit gain splits into a per-element radiation pattern and an array
factor. The element pattern follows the standard 3GPP parabolic model with
a side-lobe floor and a front-back ratio; the array factor is the coherent
sum of per-element phase weights for a uniform n_v x n_h rectangular grid,

    AF = 10*log10(|sum_{p,r} w_{p,r}|^2 / n),    n = n_v * n_h,

where each weight fuses the arrival and steering phases, so AF peaks at
10*log10(n) exactly when the steering angles equal the arrival angles.
Received power is evaluated entirely in the log domain:

    P_r[dBm] = P_t + A_E + AF + A_r + 20*log10(lambda / (4*pi*d)).

All angles at this interface are degrees; zenith is measured from +z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

AF_FLOOR_DB = -400.0


@dataclass
class AntennaConfig:
    """Element pattern and array geometry parameters.

    g_max       peak element gain, dBi
    front_back  front-back ratio A_m, dB (saturates the horizontal cut
                and the combined element attenuation)
    sla_v       side-lobe level limit for the vertical cut, dB
    theta_3db   vertical 3 dB beamwidth, degrees
    phi_3db     horizontal 3 dB beamwidth, degrees
    n_v, n_h    number of vertical / horizontal array elements
    spacing_v   vertical element spacing, m
    spacing_h   horizontal element spacing, m
    wavelength  carrier wavelength, m (array phases and free-space path gain)
    """

    g_max: float = 8.0
    front_back: float = 30.0
    sla_v: float = 30.0
    theta_3db: float = 65.0
    phi_3db: float = 65.0
    n_v: int = 32
    n_h: int = 32
    spacing_v: float = 0.0025
    spacing_h: float = 0.0025
    wavelength: float = 0.005

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.n_v < 1 or self.n_h < 1:
            raise ValueError("n_v and n_h must be >= 1")
        if self.spacing_v <= 0 or self.spacing_h <= 0:
            raise ValueError("element spacings must be > 0")
        if self.theta_3db <= 0 or self.phi_3db <= 0:
            raise ValueError("beamwidths must be > 0")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be > 0")

    @property
    def n_elements(self) -> int:
        return self.n_v * self.n_h


@dataclass
class LinkBudget:
    """Scalar link constants: transmit power (dBm) and receive gain (dBi)."""

    tx_power: float = 23.0
    rx_gain: float = 8.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")


@dataclass
class AoD:
    """Angle of departure toward the receiver: distance plus zenith/azimuth degrees."""

    distance: float
    zenith: float
    azimuth: float

    def __post_init__(self):
        if self.distance <= 0:
            raise ValueError("distance must be > 0")
        if not 0.0 <= self.zenith <= 180.0:
            raise ValueError("zenith must lie in [0, 180] degrees")
        if not -180.0 < self.azimuth <= 180.0:
            raise ValueError("azimuth must lie in (-180, 180] degrees")


def _square(x):
    return x**2  # numpy squares a scalar with libm pow, an array by exact products


def _square_each(x):
    """libm pow(x, 2) per element: what `_square` gives for one scalar, so a
    broadcast evaluation reproduces scalar evaluations bit for bit."""
    return np.float_power(x, 2.0)


def element_pattern(zenith_deg, azimuth_deg, cfg: AntennaConfig, square=_square):
    """Single-element gain in dB at the given arrival angles.

    Parabolic vertical and horizontal cuts, each clipped at its side-lobe
    floor, combined and clipped again at the front-back ratio:

        A_E = G_max - min{ -[A_EV(theta) + A_EH(phi)], A_m }.

    Accepts scalars or numpy arrays (broadcast together).
    """
    theta = np.asarray(zenith_deg, dtype=np.float64)
    phi = np.asarray(azimuth_deg, dtype=np.float64)
    a_ev = -np.minimum(12.0 * square((theta - 90.0) / cfg.theta_3db), cfg.sla_v)
    a_eh = -np.minimum(12.0 * square(phi / cfg.phi_3db), cfg.front_back)
    out = cfg.g_max - np.minimum(-(a_ev + a_eh), cfg.front_back)
    return out if out.ndim else float(out)


def _phase_sum(count: int, spacing: float, wavelength: float, psi):
    """|sum_{q=0..count-1} exp(j*2*pi*q*spacing*psi/wavelength)| via broadcasting."""
    alpha = 2.0 * math.pi * spacing / wavelength * np.asarray(psi, dtype=np.float64)
    phases = np.multiply.outer(alpha, np.arange(count))
    return np.abs(np.exp(1j * phases).sum(axis=-1))


def array_factor(
    zenith_deg, azimuth_deg, steer_zenith_deg, steer_azimuth_deg, cfg: AntennaConfig, square=_square
):
    """Array factor in dB for arrival angles (zenith, azimuth) and steering
    angles (steer_zenith, steer_azimuth).

    The rectangular grid factorizes, so the coherent sum is the product of
    a vertical and a horizontal uniform-array sum over the phase slopes

        psi_v = cos(theta) - cos(theta_s)
        psi_h = sin(theta)*sin(phi) - sin(theta_s)*sin(phi_s).

    Exact nulls are floored at AF_FLOOR_DB to keep downstream rewards finite.
    """
    theta = np.deg2rad(np.asarray(zenith_deg, dtype=np.float64))
    phi = np.deg2rad(np.asarray(azimuth_deg, dtype=np.float64))
    theta_s = np.deg2rad(np.asarray(steer_zenith_deg, dtype=np.float64))
    phi_s = np.deg2rad(np.asarray(steer_azimuth_deg, dtype=np.float64))

    psi_v = np.cos(theta) - np.cos(theta_s)
    psi_h = np.sin(theta) * np.sin(phi) - np.sin(theta_s) * np.sin(phi_s)

    mag = _phase_sum(cfg.n_v, cfg.spacing_v, cfg.wavelength, psi_v) * _phase_sum(
        cfg.n_h, cfg.spacing_h, cfg.wavelength, psi_h
    )
    power = square(mag) / cfg.n_elements
    with np.errstate(divide="ignore"):
        out = np.maximum(10.0 * np.log10(power), AF_FLOOR_DB)
    return out if out.ndim else float(out)


def tx_gain(
    zenith_deg, azimuth_deg, steer_zenith_deg, steer_azimuth_deg, cfg: AntennaConfig, square=_square
):
    """Total transmit gain in dB: element pattern plus array factor."""
    return element_pattern(zenith_deg, azimuth_deg, cfg, square) + array_factor(
        zenith_deg, azimuth_deg, steer_zenith_deg, steer_azimuth_deg, cfg, square
    )


def path_gain_db(distance: float, wavelength: float) -> float:
    """Free-space path gain 20*log10(lambda / (4*pi*d)) in dB at distance d, m."""
    if distance <= 0:
        raise ValueError("distance must be > 0")
    return 20.0 * math.log10(wavelength / (4.0 * math.pi * distance))


def link_power(zenith_deg, azimuth_deg, path_db, steer_zenith_deg, steer_azimuth_deg, cfg, budget):
    """Received power in dBm from the arrival angles, the path gain in dB and
    the steering angles. Arrays broadcast together, and each element equals
    the scalar evaluation of its inputs bit for bit."""
    gain = tx_gain(zenith_deg, azimuth_deg, steer_zenith_deg, steer_azimuth_deg, cfg, _square_each)
    return budget.tx_power + gain + budget.rx_gain + path_db


def received_power(
    aod: AoD,
    steer_zenith_deg: float,
    steer_azimuth_deg: float,
    cfg: AntennaConfig,
    budget: LinkBudget,
) -> float:
    """Received power in dBm over a line-of-sight free-space link."""
    path_db = path_gain_db(aod.distance, cfg.wavelength)
    gain = tx_gain(aod.zenith, aod.azimuth, steer_zenith_deg, steer_azimuth_deg, cfg)
    return budget.tx_power + float(gain) + budget.rx_gain + path_db


def _angles(dx: float, dy: float, dz: float, d: float):
    """Zenith and azimuth in degrees of a separation (dx, dy, dz) of length d."""
    zenith = math.degrees(math.acos(min(1.0, max(-1.0, dz / d))))
    azimuth = math.degrees(math.atan2(dy, dx))
    return zenith, (azimuth + 360.0 if azimuth <= -180.0 else azimuth)


def aod_geometry(x_s: np.ndarray, x_g: np.ndarray) -> AoD:
    """Angle of departure of the transmitter at x_s toward the receiver at x_g.

    Zenith is arccos of the normalized z separation; azimuth uses the
    quadrant-aware arctangent of the xy separation and is defined as 0 at
    the poles (zenith 0 or 180, where azimuth is degenerate).
    """
    delta = np.asarray(x_s, dtype=np.float64) - np.asarray(x_g, dtype=np.float64)
    d = math.sqrt(delta.dot(delta))  # the BLAS dot that np.linalg.norm takes
    if d == 0.0:
        raise ValueError("transmitter and receiver positions coincide")
    return AoD(d, *_angles(*delta.tolist(), d))


def aod_batch(x_s: np.ndarray, x_g: np.ndarray):
    """aod_geometry of every row of x_s (B, 3) toward x_g ((B, 3) or one (3,)
    position), bit for bit: (distance, zenith, azimuth) arrays of shape (B,)."""
    delta = np.asarray(x_s, dtype=np.float64) - np.asarray(x_g, dtype=np.float64)
    dist = np.sqrt(np.vecdot(delta, delta))  # the same BLAS dot, one per row
    if not dist.all():
        raise ValueError("transmitter and receiver positions coincide")
    # libm per row: numpy's vectorized arccos and arctan2 may round differently
    zenith, azimuth = np.array([_angles(*row, d) for row, d in zip(delta.tolist(), dist.tolist())]).T
    return dist, zenith, azimuth
