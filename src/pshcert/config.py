"""Run configuration shared by the construction checks and the CLI."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


#: largest series truncation order: the thm2 coefficients delta_j underflow
#: to exactly 0 from j = 1016 on (thm1 from j = 1071), and a zero term on
#: its own pole line evaluates 0 * log 0 = NaN
MAX_TRUNC = 1015

#: accepted finite-difference steps: a sweep over n = 2, 3 and seeds 42-47
#: passed every report inside it; below it the h^2 division of the stencil
#: loses the Levi form to rounding (taper-levi-fd-agreement fails at 5e-6,
#: margins turn NaN at 1e-300), above it the truncation error exceeds the
#: tolerances (example1-floor-near-one fails at 2e-4)
FD_STEP_MIN = 1e-5
FD_STEP_MAX = 1e-4

#: most plateau discs checked per report. plateau-laplacian-floor steps its
#: stencils by r_j * 1e-3 with r_j = 1/(4j(j+1)), so the rounding of the
#: |z|^2 part grows like eps/h^2 ~ j^4: with samples=100 and seeds 42-57 the
#: lemma21 and all reports pass at 79 checks (1000 seeds pass every disc up
#: to 79, the worst disc margin is 0.05 at j = 77); seed 43 fails at 80
#: (margin -0.21), seed 42 at 100 (-0.87), 200 (-39.4) and 1015 (-2.76e4)
MAX_PLATEAU_CHECKS = 79

#: largest seed: ``geometry.philox`` keys its generator with
#: np.asarray([seed, stream]), which turns float64 from 2**63 on and merges
#: neighbouring seeds
MAX_SEED = 2**63 - 1

#: most cells of one grid export (2048 x 2048): a larger ``--res`` exits 2
#: before anything is allocated (30000 x 30000 would need a 6.71 GiB float64 mesh)
MAX_GRID_CELLS = 2**22

# Constants of the constructions. Every report echoes them in
# ``config_echo`` next to the settable fields.
C_LEVEL = 1.0  # level of the warm-up sublevel set
TAPER_RADIUS = 2.5  # radius R of the w-ball of the tapered form
PSD_TOL = 5e-6  # tolerance of the finite-difference Levi floors of thm2
# The margins keep finite-difference stencils away from the places where
# they are invalid or unresolvable in float64: FLAT_MARGIN shrinks the
# strictness window off the taper's exponentially flat junction at
# |z| = 1, POLE_MARGIN excludes small neighborhoods of the poles,
# BAND_MARGIN excludes the |w| = 5/2 switching sphere, and
# EXAMPLE1_EXCLUSION keeps the warm-up check away from its log pole.
FLAT_MARGIN = 5e-3
POLE_MARGIN = 1e-2
BAND_MARGIN = 1e-2
EXAMPLE1_EXCLUSION = 5e-2

_ECHOED_CONSTANTS = {
    "c_level": C_LEVEL,
    "taper_radius": TAPER_RADIUS,
    "psd_tol": PSD_TOL,
    "flat_margin": FLAT_MARGIN,
    "pole_margin": POLE_MARGIN,
    "band_margin": BAND_MARGIN,
    "example1_exclusion": EXAMPLE1_EXCLUSION,
}


class ConfigError(ValueError):
    """Invalid run configuration (maps to process exit code 2)."""


@dataclass(frozen=True)
class CertifyConfig:
    """Knobs of a certification run; defaults reproduce the shipped reports.

    ``samples`` is the per-certificate sample count; whole-domain bound
    checks and the tapered-form inequality use ``big_samples`` (10x).
    ``submean_probes`` and ``plateau_checks`` size the circle-mean and
    per-disc plateau checks.
    """

    n: int = 2
    trunc: int = 60
    samples: int = 10_000
    seed: int = 42
    tol: float = 1e-6
    fd_step: float = 1e-4
    submean_probes: int = 1000
    plateau_checks: int = 50

    @property
    def big_samples(self) -> int:
        return 10 * self.samples

    @property
    def j_max(self) -> int:
        return max(self.trunc, self.plateau_checks)

    def validate(self) -> "CertifyConfig":
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int" and (type(v) is bool or not isinstance(v, numbers.Integral)):
                raise ConfigError(f"{f.name} must be an integer, got {v!r}")
        if not 2 <= self.n <= 8:
            raise ConfigError(f"ambient dimension n must be in [2, 8], got {self.n}")
        if not 1 <= self.trunc <= MAX_TRUNC:
            raise ConfigError(
                f"truncation order must be in [1, {MAX_TRUNC}], got {self.trunc}"
            )
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be an integer in [0, {MAX_SEED}]")
        if self.samples < 100:
            raise ConfigError("need at least 100 samples per certificate")
        if not FD_STEP_MIN <= self.fd_step <= FD_STEP_MAX:
            raise ConfigError(
                f"fd step must lie in [{FD_STEP_MIN:g}, {FD_STEP_MAX:g}], got {self.fd_step}"
            )
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        if self.submean_probes < 1 or self.plateau_checks < 1:
            raise ConfigError("submean_probes and plateau_checks must be >= 1")
        if self.plateau_checks > MAX_PLATEAU_CHECKS:
            raise ConfigError(
                f"plateau_checks must be at most {MAX_PLATEAU_CHECKS}, got {self.plateau_checks}"
            )
        return self

    def echo(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(_ECHOED_CONSTANTS)
        out["big_samples"] = self.big_samples
        out["j_max"] = self.j_max
        return out
