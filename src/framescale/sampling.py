"""Seeded samplers for spherical directions, elliptical data, and Gaussian frames.

All randomness flows through a counter-based generator keyed on
(master_seed, stream_index), so any draw can be reproduced bit-for-bit and
independent streams need no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frame import DegenerateColumnError, Frame, column_square_norms
from .scaling import pd_inv_sqrt, pd_sqrt
from .tyler import ShapePD

__all__ = [
    "SeedSpec",
    "RadialLaw",
    "EllipticalModel",
    "sample_sphere",
    "sample_sphere_frame",
    "sample_elliptical",
    "sample_gaussian_frame",
    "normalize_columns",
    "whiten",
]

_MASK64 = (1 << 64) - 1


def float_text(value: float) -> str:
    """The ``:g`` text of a float when it parses back to it, else ``repr``."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus stream index; equal specs reproduce equal samples."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_index & _MASK64],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, index: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, index)


@dataclass(frozen=True)
class RadialLaw:
    """Radius law of an elliptical model: constant 1, a Gaussian norm, or
    a Student-t radius with nu degrees of freedom."""

    kind: str
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "gaussian", "student_t"):
            raise ValueError(f"unknown radial law {self.kind!r}")
        if self.kind == "student_t":
            if self.nu is None or not 0 < self.nu < np.inf:
                raise ValueError("student_t radial law needs a finite nu > 0")
        elif self.nu is not None:
            raise ValueError(f"radial law {self.kind!r} takes no nu parameter")

    @classmethod
    def constant(cls) -> "RadialLaw":
        return cls("constant")

    @classmethod
    def gaussian_norm(cls) -> "RadialLaw":
        return cls("gaussian")

    @classmethod
    def student_t(cls, nu: float) -> "RadialLaw":
        return cls("student_t", float(nu))

    @classmethod
    def parse(cls, text: str) -> "RadialLaw":
        """Parse 'constant', 'gaussian', or 't:NU'."""
        if text == "constant":
            return cls.constant()
        if text == "gaussian":
            return cls.gaussian_norm()
        if text.startswith("t:"):
            return cls.student_t(float(text[2:]))
        raise ValueError(f"cannot parse radial law {text!r}")

    def __str__(self):
        if self.kind == "student_t":
            return f"t:{float_text(self.nu)}"
        return self.kind

    def draw(self, d: int, n: int, gen: np.random.Generator) -> np.ndarray:
        """Draw n radius values for dimension-d directions."""
        if self.kind == "constant":
            return np.ones(n)
        if self.kind == "gaussian":
            return np.sqrt(gen.chisquare(d, size=n))
        norms = np.sqrt(gen.chisquare(d, size=n))
        return norms / np.sqrt(gen.chisquare(self.nu, size=n) / self.nu)


@dataclass(frozen=True)
class EllipticalModel:
    """Shape matrix plus radial law defining an elliptical distribution."""

    sigma: ShapePD
    radial: RadialLaw

    @cached_property
    def sigma_root(self) -> np.ndarray:
        """Symmetric square root of the shape, computed on first use and kept."""
        root = pd_sqrt(self.sigma.matrix)
        root.setflags(write=False)
        return root


def _sphere_columns(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    gauss = gen.standard_normal((d, n))
    norms = np.sqrt(column_square_norms(gauss))
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate zero draw from the Gaussian stream")
    return gauss / norms


def sample_sphere(d: int, seed: SeedSpec) -> np.ndarray:
    """One uniformly random unit vector (Gaussian draw, then normalize)."""
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    return _sphere_columns(d, 1, seed.generator())[:, 0]


def sample_sphere_frame(d: int, n: int, seed: SeedSpec) -> Frame:
    """Frame of n independent sphere-uniform columns."""
    if n < d:
        raise ValueError(f"need n >= d, got d={d}, n={n}")
    return Frame(_sphere_columns(d, n, seed.generator()))


def sample_elliptical(model: EllipticalModel, n: int, seed: SeedSpec) -> np.ndarray:
    """Draw a d x n sample with independent columns Sigma^{1/2} u r.

    Directions are consumed from the stream before radii, so matched seeds
    give bitwise-identical directions under every radial law.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    gen = seed.generator()
    d = model.sigma.d
    directions = _sphere_columns(d, n, gen)
    radii = model.radial.draw(d, n, gen)
    return (model.sigma_root @ directions) * radii


def sample_gaussian_frame(d: int, n: int, variance: float, seed: SeedSpec) -> Frame:
    """Frame with iid centered normal entries of the given variance."""
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    gen = seed.generator()
    return Frame(np.sqrt(variance) * gen.standard_normal((d, n)))


def normalize_columns(data) -> Frame:
    """Scale every column to unit norm; the output frame has size n."""
    data = np.asarray(data, dtype=float)
    norms = np.sqrt(column_square_norms(data))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateColumnError(int(zero[0]))
    return Frame(data / norms)


def whiten(data, sigma: ShapePD) -> Frame:
    """Unit-norm columns of Sigma^{-1/2} applied to the data."""
    return normalize_columns(pd_inv_sqrt(sigma.matrix) @ np.asarray(data, dtype=float))
