"""Transmit gain of a rectangular phased array and the free-space link budget.

The transmit gain splits into a per-element radiation pattern and an array
factor. The element pattern follows the standard 3GPP parabolic model with
a side-lobe floor and a front-back ratio; the array factor is the coherent
sum of per-element phase weights for a uniform n_v x n_h rectangular grid,

    AF = 10*log10(|sum_{p,r} w_{p,r}|^2 / n),    n = n_v * n_h,

where each weight fuses the arrival and steering phases, so AF peaks at
10*log10(n) exactly when the steering angles equal the arrival angles. The
grid factorizes, and each axis's sum has the closed form of a Dirichlet
kernel. Received power is evaluated entirely in the log domain:

    P_r[dBm] = P_t + A_E + AF + A_r + 20*log10(lambda / (4*pi*d)).

Every function here is one numeric path of numpy ufuncs and exact
arithmetic that takes scalars or arrays alike: a scalar call is the batch
of one, so it gives each row of a batched call bit for bit.

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


def element_pattern(zenith_deg, azimuth_deg, cfg: AntennaConfig):
    """Single-element gain in dB at the given arrival angles.

    Parabolic vertical and horizontal cuts, each clipped at its side-lobe
    floor, combined and clipped again at the front-back ratio:

        A_E = G_max - min{ -[A_EV(theta) + A_EH(phi)], A_m }.

    Accepts scalars or numpy arrays (broadcast together).
    """
    v = (np.asarray(zenith_deg, dtype=np.float64) - 90.0) / cfg.theta_3db
    h = np.asarray(azimuth_deg, dtype=np.float64) / cfg.phi_3db
    a_ev = -np.minimum(12.0 * (v * v), cfg.sla_v)
    a_eh = -np.minimum(12.0 * (h * h), cfg.front_back)
    out = cfg.g_max - np.minimum(-(a_ev + a_eh), cfg.front_back)
    return out if out.ndim else float(out)


def _phase_sum(count: int, spacing: float, wavelength: float, psi):
    """|sum_{q=0..count-1} exp(j*2*pi*q*spacing*psi/wavelength)| in closed form:
    the Dirichlet kernel |sin(count*x) / sin(x)| at x = pi*spacing*psi/wavelength,
    which is count where |sin x| < 1e-12 (the main and grating lobes). Call it
    under errstate(invalid="ignore"): the kernel divides 0 by 0 at x = 0."""
    x = math.pi * spacing / wavelength * psi
    s = np.sin(x)
    return np.where(np.abs(s) < 1e-12, float(count), np.abs(np.sin(count * x) / s))


def array_factor(zenith_deg, azimuth_deg, steer_zenith_deg, steer_azimuth_deg, cfg: AntennaConfig):
    """Array factor in dB for arrival angles (zenith, azimuth) and steering
    angles (steer_zenith, steer_azimuth); arrays broadcast together.

    The rectangular grid factorizes, so the coherent sum is the product of
    a vertical and a horizontal uniform-array sum over the phase slopes

        psi_v = cos(theta) - cos(theta_s)
        psi_h = sin(theta)*sin(phi) - sin(theta_s)*sin(phi_s),

    each the Dirichlet kernel of `_phase_sum`. Exact nulls are floored at
    AF_FLOOR_DB to keep downstream rewards finite.
    """
    theta, phi = np.radians(zenith_deg), np.radians(azimuth_deg)
    theta_s, phi_s = np.radians(steer_zenith_deg), np.radians(steer_azimuth_deg)
    psi_v = np.cos(theta) - np.cos(theta_s)
    psi_h = np.sin(theta) * np.sin(phi) - np.sin(theta_s) * np.sin(phi_s)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = _phase_sum(cfg.n_v, cfg.spacing_v, cfg.wavelength, psi_v) * _phase_sum(
            cfg.n_h, cfg.spacing_h, cfg.wavelength, psi_h
        )
        out = np.maximum(10.0 * np.log10(mag * mag / cfg.n_elements), AF_FLOOR_DB)
    return out if out.ndim else float(out)


def tx_gain(zenith_deg, azimuth_deg, steer_zenith_deg, steer_azimuth_deg, cfg: AntennaConfig):
    """Total transmit gain in dB: element pattern plus array factor."""
    return element_pattern(zenith_deg, azimuth_deg, cfg) + array_factor(
        zenith_deg, azimuth_deg, steer_zenith_deg, steer_azimuth_deg, cfg
    )


def path_gain_db(distance, wavelength: float):
    """Free-space path gain 20*log10(lambda / (4*pi*d)) in dB at distance d, m
    (a float or an array of distances)."""
    if np.count_nonzero(distance <= 0.0):
        raise ValueError("distance must be > 0")
    return 20.0 * np.log10(wavelength / (4.0 * math.pi * distance))


def link_power(zenith_deg, azimuth_deg, path_db, steer_zenith_deg, steer_azimuth_deg, cfg, budget):
    """Received power in dBm from the arrival angles, the path gain in dB and
    the steering angles. Arrays broadcast together; `received_power` is the
    call on one row, so each element equals it bit for bit."""
    gain = tx_gain(zenith_deg, azimuth_deg, steer_zenith_deg, steer_azimuth_deg, cfg)
    return budget.tx_power + gain + budget.rx_gain + path_db


def received_power(
    aod: AoD,
    steer_zenith_deg: float,
    steer_azimuth_deg: float,
    cfg: AntennaConfig,
    budget: LinkBudget,
) -> float:
    """Received power in dBm over a line-of-sight free-space link: link_power
    of one row."""
    path_db = path_gain_db(aod.distance, cfg.wavelength)
    return float(link_power(aod.zenith, aod.azimuth, path_db, steer_zenith_deg, steer_azimuth_deg, cfg, budget))


def aod_geometry(x_s: np.ndarray, x_g: np.ndarray) -> AoD:
    """Angle of departure of the transmitter at x_s toward the receiver at x_g:
    aod_batch of one row."""
    return AoD(*map(float, aod_batch(x_s, x_g)))


def aod_batch(x_s: np.ndarray, x_g: np.ndarray):
    """Angles of departure of the transmitters at x_s ((B, 3), or one (3,)
    position) toward the receivers at x_g (the same shape, or one (3,)
    position): (distance, zenith, azimuth) arrays of shape (B,), or scalars.

    Zenith is arccos of the normalized z separation; azimuth uses the
    quadrant-aware arctangent of the xy separation, lies in (-180, 180] and
    is 0 at the poles (zenith 0 or 180, where azimuth is degenerate).
    """
    delta = np.asarray(x_s, dtype=np.float64) - np.asarray(x_g, dtype=np.float64)
    dist = np.sqrt(np.vecdot(delta, delta))
    if np.count_nonzero(dist == 0.0):
        raise ValueError("transmitter and receiver positions coincide")
    zenith = np.degrees(np.arccos(np.minimum(np.maximum(delta[..., 2] / dist, -1.0), 1.0)))
    azimuth = np.degrees(np.arctan2(delta[..., 1], delta[..., 0]))
    return dist, zenith, azimuth + 360.0 * (azimuth <= -180.0)  # arctan2 gives -pi where y = -0, x < 0
