"""Run configuration shared by the construction checks and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


#: largest series truncation order: the thm2 coefficients delta_j underflow
#: to exactly 0 from j = 1016 on (thm1 from j = 1071), and a zero term on
#: its own pole line evaluates 0 * log 0 = NaN
MAX_TRUNC = 1015


class ConfigError(ValueError):
    """Invalid run configuration (maps to process exit code 2)."""


@dataclass(frozen=True)
class CertifyConfig:
    """Knobs of a certification run; defaults reproduce the shipped reports.

    ``samples`` is the per-certificate sample count; whole-domain bound
    checks and the tapered-form inequality use ``big_samples`` (10x).
    The margin fields keep finite-difference stencils away from the
    places where they are invalid or unresolvable in float64:
    ``flat_margin`` shrinks the strictness window off the taper's
    exponentially flat junction at |z| = 1, ``pole_margin`` excludes
    small neighborhoods of the poles, ``band_margin`` excludes the
    |w| = 5/2 switching sphere, and ``example1_exclusion`` keeps the
    warm-up check away from its logarithmic pole.
    """

    n: int = 2
    trunc: int = 60
    samples: int = 10_000
    seed: int = 42
    tol: float = 1e-6
    fd_step: float = 1e-4
    c_level: float = 1.0
    taper_radius: float = 2.5
    psd_tol: float = 5e-6
    flat_margin: float = 5e-3
    pole_margin: float = 1e-2
    band_margin: float = 1e-2
    example1_exclusion: float = 5e-2
    submean_probes: int = 1000
    plateau_checks: int = 50

    @property
    def big_samples(self) -> int:
        return 10 * self.samples

    @property
    def j_max(self) -> int:
        return max(self.trunc, self.plateau_checks)

    def validate(self) -> "CertifyConfig":
        if not 2 <= self.n <= 8:
            raise ConfigError(f"ambient dimension n must be in [2, 8], got {self.n}")
        if not 1 <= self.trunc <= MAX_TRUNC:
            raise ConfigError(
                f"truncation order must be in [1, {MAX_TRUNC}], got {self.trunc}"
            )
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.samples < 100:
            raise ConfigError("need at least 100 samples per certificate")
        if not 0 < self.fd_step < 1e-2:
            raise ConfigError("fd step must lie in (0, 1e-2)")
        if self.tol <= 0 or self.psd_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.taper_radius <= 0:
            raise ConfigError("taper radius must be positive")
        return self

    def echo(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["big_samples"] = self.big_samples
        out["j_max"] = self.j_max
        return out
