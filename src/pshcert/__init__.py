"""Sampling-based certification of plurisubharmonic constructions on
unbounded pseudoconvex domains.

The package builds explicit log-pole series, a plateau-glued
subharmonic function, a tapered quadratic form and two sublevel-domain
scenarios, then certifies their defining inequalities, memberships and
Levi-form positivity by deterministic sampling with rigorous series
tails. See the ``certify`` module for suites and the CLI.
"""

from .calculus import (
    Certificate,
    certify_psh,
    circle_mean_test,
    wirtinger_hessian_batch,
)
from .certify import Report, emit_grid, run_suite, serialize_report
from .config import CertifyConfig, ConfigError
from .constructions import (
    PlateauFunction,
    TaperedForm,
    Thm1Scenario,
    Thm2Scenario,
    build_plateau,
    build_tapered_form,
    build_thm1,
    build_thm2,
)
from .geometry import (
    Sampler,
    SublevelRegion,
    Window,
    golden_angles,
    path_connected_probe,
    sample,
)
from .kernels import BACKEND_NAME
from .logpoles import (
    PoleSchedule,
    make_schedule,
    series_values,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME",
    "Certificate",
    "CertifyConfig",
    "ConfigError",
    "PlateauFunction",
    "PoleSchedule",
    "Report",
    "Sampler",
    "SublevelRegion",
    "TaperedForm",
    "Thm1Scenario",
    "Thm2Scenario",
    "Window",
    "build_plateau",
    "build_tapered_form",
    "build_thm1",
    "build_thm2",
    "certify_psh",
    "circle_mean_test",
    "emit_grid",
    "golden_angles",
    "make_schedule",
    "path_connected_probe",
    "run_suite",
    "sample",
    "serialize_report",
    "series_values",
    "wirtinger_hessian_batch",
]
