import os
from pathlib import Path

import pytest

from pshcert.config import CertifyConfig
from pshcert.constructions import (
    build_plateau,
    build_tapered_form,
    build_thm1,
    build_thm2,
)


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def children_import_this_checkout():
    """Interpreters that tests start import pshcert from ``src/`` too."""
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, old) if p)
    yield
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old


@pytest.fixture(scope="session")
def small_cfg():
    return CertifyConfig(samples=300, submean_probes=60, plateau_checks=10)


@pytest.fixture(scope="session")
def plateau(small_cfg):
    return build_plateau(small_cfg.j_max)


@pytest.fixture(scope="session")
def tapered(small_cfg):
    return build_tapered_form(small_cfg.n)


@pytest.fixture(scope="session")
def thm1(small_cfg):
    return build_thm1(small_cfg)


@pytest.fixture(scope="session")
def thm2(small_cfg, plateau):
    return build_thm2(small_cfg, plateau)
