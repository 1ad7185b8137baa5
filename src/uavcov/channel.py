"""Air-to-ground link budget.

Pure functions for geometry, LoS probability, fading, received power and
achievable rate; FrameWorld.evaluate adds the inter-UAV interference. All
functions accept scalars or numpy arrays (broadcasting elementwise), so the
same code evaluates a single test link, a whole frame of links, and a frame
held over T steps: per-link terms of shape (n,) broadcast against (T, n)
fading gains, one FadingField.draw per step.

Conventions: distances in meters, powers in watts, bandwidth in Hz, rates in
bits/s. Fading factors are dimensionless power gains normalized to unit mean,
so the path-loss terms keep their physical interpretation.
"""

from dataclasses import dataclass

import numpy as np

from . import seeding


@dataclass(frozen=True)
class EnvConstants:
    """Propagation constants for the dense-urban scenario."""

    b: float = 0.136            # sigmoid slope of the LoS probability
    c: float = 11.95            # sigmoid offset, degrees
    alpha_los: float = 3.0      # path-loss exponent, LoS
    alpha_nlos: float = 4.0     # path-loss exponent, NLoS
    noise_power: float = 4e-15  # AWGN power, W
    rician_k_db: float = 10.0   # Rician K-factor of the LoS fading, dB

    def __post_init__(self):
        if not (self.b > 0 and self.c > 0):
            raise ValueError("sigmoid constants b, c must be positive")
        if not (self.alpha_nlos >= self.alpha_los > 2.0):
            raise ValueError("require alpha_nlos >= alpha_los > 2")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")


@dataclass(frozen=True)
class LinkGeometry:
    d: float      # horizontal distance, m
    r: float      # 3D distance, m
    theta: float  # elevation angle, rad


def link_geometry(ue_xy, uav_xyz) -> LinkGeometry:
    """Geometry of a single ground-to-air link. UAV altitude must be > 0."""
    ue = np.asarray(ue_xy, dtype=float)
    uav = np.asarray(uav_xyz, dtype=float)
    if not (np.all(np.isfinite(ue)) and np.all(np.isfinite(uav))):
        raise ValueError("non-finite coordinates")
    h = float(uav[2])
    if h <= 0:
        raise ValueError("UAV altitude must be positive")
    d = float(np.hypot(uav[0] - ue[0], uav[1] - ue[1]))
    r = float(np.hypot(d, h))
    theta = float(np.arcsin(h / r))
    return LinkGeometry(d=d, r=r, theta=theta)


def horizontal_distances(ue_xy, uav_xy):
    """(n, m) ground distances from UE positions (n,2) to UAV positions (m,2)."""
    ue = np.asarray(ue_xy, dtype=float)
    uav = np.asarray(uav_xy, dtype=float)
    diff = ue[:, None, :2] - uav[None, :, :2]
    return np.hypot(diff[..., 0], diff[..., 1])


def slant_geometry(d, h):
    """(r, theta) for ground distances d (n, m) to UAVs at altitudes h (m,)."""
    r = np.hypot(d, h)
    return r, np.arcsin(h / r)


def los_probability(theta, env: EnvConstants):
    """LoS probability as a sigmoid in the elevation angle (radians)."""
    th = np.asarray(theta, dtype=float)
    if np.any(th < -1e-12) or np.any(th > np.pi / 2 + 1e-12):
        raise ValueError("theta outside [0, pi/2]")
    deg = np.degrees(th)
    p = 1.0 / (1.0 + env.c * np.exp(-env.b * (deg - env.c)))
    return p if p.ndim else float(p)


def received_power(p_tx, r, gain, alpha):
    """Faded power-law received power: p_tx * gain * r**(-alpha)."""
    p = np.asarray(p_tx, dtype=float)
    rr = np.asarray(r, dtype=float)
    if np.any(p < 0):
        raise ValueError("transmit power must be non-negative")
    if np.any(rr <= 0):
        raise ValueError("distance must be positive")
    out = p * np.asarray(gain, dtype=float) * rr ** (-float(alpha))
    return out if out.ndim else float(out)


def effective_power(p_los, power_los, power_nlos):
    """LoS-probability-weighted mix of the two link hypotheses."""
    pl = np.asarray(p_los, dtype=float)
    out = pl * np.asarray(power_los, dtype=float) + (1.0 - pl) * np.asarray(power_nlos, dtype=float)
    return out if out.ndim else float(out)


def achievable_rate(bandwidth, power_eff, interference, noise):
    """Shannon rate of the link: B * log2(1 + SINR)."""
    bw = np.asarray(bandwidth, dtype=float)
    nz = np.asarray(noise, dtype=float)
    if np.any(bw < 0):
        raise ValueError("bandwidth must be non-negative")
    if np.any(nz <= 0):
        raise ValueError("noise power must be positive")
    sinr = np.asarray(power_eff, dtype=float) / (np.asarray(interference, dtype=float) + nz)
    out = bw * np.log2(1.0 + sinr)
    return out if out.ndim else float(out)


def rayleigh_power_gain(rng: np.random.Generator, size=None):
    """Unit-mean Rayleigh power gain, i.e. Exp(1)."""
    return rng.exponential(1.0, size=size)


def rician_power_gain(rng: np.random.Generator, k_db: float, size=None):
    """Unit-mean Rician power gain with K-factor k_db.

    |nu + x + iy|^2 with deterministic LoS amplitude nu and Gaussian scatter,
    scaled so the mean power is exactly 1.
    """
    k = 10.0 ** (k_db / 10.0)
    nu = np.sqrt(k / (k + 1.0))
    sigma = np.sqrt(1.0 / (2.0 * (k + 1.0)))
    shape = () if size is None else size
    x = rng.normal(0.0, sigma, size=shape)
    y = rng.normal(0.0, sigma, size=shape)
    g = (nu + x) ** 2 + y ** 2
    return g if np.ndim(g) else float(g)


class FadingField:
    """Counter-addressed small-scale fading for every (UE, UAV) link.

    Gains are indexed by (frame, episode, step); regenerating the same index
    always yields the same matrices, regardless of what else was drawn. An
    evaluation held over many steps draws each step on its own, so its gains
    are those of one evaluation per step.
    """

    def __init__(self, master_seed: int, env: EnvConstants, n_ues: int, n_uavs: int):
        self.master_seed = int(master_seed)
        self.env = env
        self.n_ues = int(n_ues)
        self.n_uavs = int(n_uavs)
        self._stream = seeding.AddressedStream(self.master_seed, seeding.FADING)

    def draw(self, frame: int, episode: int, step: int):
        """(rician, rayleigh) gain matrices of shape (n_ues, n_uavs)."""
        rng = self._stream.at((frame, episode, step))
        shape = (self.n_ues, self.n_uavs)
        g = rician_power_gain(rng, self.env.rician_k_db, size=shape)
        k = rayleigh_power_gain(rng, size=shape)
        return g, k
