"""Reports, canonical serialization, grid exports, and the CLI."""

import hashlib

import numpy as np
import pytest

from pshcert import certify
from pshcert.certify import (
    GRID_FUNCTION_IDS,
    SUITES,
    canonical_json,
    emit_grid,
    parse_region_spec,
    parse_slice_spec,
    run_suite,
    serialize_report,
)
from pshcert.cli import main
from pshcert.config import MAX_TRUNC, CertifyConfig, ConfigError


@pytest.fixture(scope="module")
def tiny_cfg():
    return CertifyConfig(samples=200, submean_probes=40, plateau_checks=8)


# --- canonical serialization ------------------------------------------------

def test_canonical_json_floats():
    assert canonical_json(1.5) == "1.5000000000000000e+00"
    assert canonical_json(float("inf")) == '"inf"'
    assert canonical_json(float("-inf")) == '"-inf"'
    assert canonical_json(float("nan")) == '"nan"'
    assert canonical_json(np.float64(2.0)) == "2.0000000000000000e+00"
    assert canonical_json(np.int64(3)) == "3"


def test_canonical_json_sorted_keys_and_nesting():
    s = canonical_json({"b": [1, 2.0], "a": {"y": None, "x": True}})
    assert s == '{"a":{"x":true,"y":null},"b":[1,2.0000000000000000e+00]}'
    assert canonical_json(1 + 2j) == canonical_json([1.0, 2.0])


def test_config_validation():
    with pytest.raises(ConfigError):
        CertifyConfig(n=1).validate()
    with pytest.raises(ConfigError):
        CertifyConfig(n=9).validate()
    with pytest.raises(ConfigError):
        CertifyConfig(samples=10).validate()
    with pytest.raises(ConfigError):
        CertifyConfig(fd_step=0.5).validate()
    assert CertifyConfig().validate() is not None


def test_trunc_capped_at_last_nonzero_coefficient(capsys):
    # past MAX_TRUNC a zero coefficient meets its own pole line (0 * log 0)
    assert CertifyConfig(trunc=MAX_TRUNC).validate() is not None
    for trunc in (0, MAX_TRUNC + 1, 100_000):
        with pytest.raises(ConfigError):
            CertifyConfig(trunc=trunc).validate()
    assert main(["certify", "thm2", "--trunc", str(MAX_TRUNC + 1)]) == 2
    assert "truncation order" in capsys.readouterr().err


# --- suites -----------------------------------------------------------------

@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_each_suite_passes(suite, tiny_cfg):
    report = run_suite(suite, tiny_cfg)
    assert report.passed, [c.name for c in report.certificates if not c.passed]
    assert report.suite == suite
    assert report.schedule_fingerprint.startswith("sha256:")
    assert report.config_echo["backend"] == "numpy"
    assert report.elapsed_ms >= 0


def test_all_suite_concatenates_in_order(tiny_cfg):
    report = run_suite("all", tiny_cfg)
    names = [c.name for c in report.certificates]
    prefixes = ("example1", "thm1", "plateau", "taper", "thm2")
    spans = [max(i for i, n in enumerate(names) if n.startswith(p))
             for p in prefixes]
    assert spans == sorted(spans)
    assert report.passed


def test_report_bytes_are_stable(tiny_cfg):
    a = serialize_report(run_suite("lemma3", tiny_cfg))
    b = serialize_report(run_suite("lemma3", tiny_cfg))
    assert a == b
    assert a.endswith("\n")
    assert "elapsed" not in a


def test_thm2_small_truncation_passes():
    # pole lines must be drawn among the trunc poles of the truncated
    # series, not among all j_max = max(trunc, plateau_checks) poles
    report = run_suite("thm2", CertifyConfig(trunc=10, samples=500))
    assert report.passed, [c.name for c in report.certificates if not c.passed]


def test_unknown_suite_rejected(tiny_cfg):
    with pytest.raises(ConfigError):
        run_suite("nope", tiny_cfg)


def test_construction_failure_becomes_failing_report(tiny_cfg, monkeypatch):
    import pshcert.certify as certify_mod

    def broken(*args, **kwargs):
        raise RuntimeError("no positive floor after doubling retries")

    monkeypatch.setattr(certify_mod, "build_tapered_form", broken)
    report = run_suite("lemma3", tiny_cfg)
    assert not report.passed
    assert report.certificates[0].name == "construction-failure"
    assert "doubling" in report.certificates[0].witnesses[0]["error"]
    assert serialize_report(report)


def test_psh_sample_shortfall_becomes_failing_report():
    # an exclusion radius beyond the example1 window leaves no point to
    # certify; the report says so instead of certifying an empty set
    cfg = CertifyConfig(samples=100, submean_probes=40, plateau_checks=8,
                        example1_exclusion=10.0)
    report = run_suite("example1", cfg)
    assert not report.passed
    assert [c.name for c in report.certificates] == ["construction-failure"]
    assert report.certificates[0].witnesses[0]["error"] == (
        "example1-strict-psh: delivered 0/100 points"
    )


# --- grids ------------------------------------------------------------------

def test_parse_specs():
    assert parse_region_spec("-3:3,-1:1") == (-3.0, 3.0, -1.0, 1.0)
    with pytest.raises(ConfigError):
        parse_region_spec("3:-3,-1:1")
    with pytest.raises(ConfigError):
        parse_region_spec("junk")
    assert parse_slice_spec("none", 2) == ("z", None)
    varying, fixed = parse_slice_spec("w=1+2j", 2)
    assert varying == "z" and fixed[0] == 1 + 2j
    varying, fixed = parse_slice_spec("z=0.5", 2)
    assert varying == "w" and fixed[0] == 0.5
    with pytest.raises(ConfigError):
        parse_slice_spec("w=1;2", 2)
    with pytest.raises(ConfigError):
        parse_slice_spec("z=1", 3)


def test_grid_row_count_and_values(tiny_cfg, tmp_path):
    out = tmp_path / "sigma.csv"
    export = emit_grid("sigma", "none", "-3:3,-3:3", (200, 200), str(out), tiny_cfg)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# axes=re(z),im(z)")
    assert lines[1] == "x,y,value"
    assert len(lines) == 2 + 200 * 200
    assert export.values.size == 40_000


def test_grid_u_equals_square_inside_disk(tiny_cfg, tmp_path):
    out = tmp_path / "u.csv"
    export = emit_grid("u", "none", "-3:3,-3:3", (41, 41), str(out), tiny_cfg)
    xs = np.linspace(-3, 3, 41)
    gx, gy = np.meshgrid(xs, xs)
    inside = (gx**2 + gy**2).ravel() <= 1.0
    np.testing.assert_array_equal(
        export.values[inside], (gx**2 + gy**2).ravel()[inside]
    )


def test_grid_neg_inf_sentinel(tiny_cfg, tmp_path):
    out = tmp_path / "d1.csv"
    # the grid contains the origin, where the first-coordinate log pole
    # sends the defining function to -inf
    emit_grid("d1", "w=0", "-1:1,-1:1", (3, 3), str(out), tiny_cfg)
    body = out.read_text()
    assert "-inf" in body
    row = [ln for ln in body.splitlines() if ln.startswith("0,0,")]
    assert row == ["0,0,-inf"]


def _per_cell_csv(header, xs, ys, vals):
    # the formatter emit_grid used before it streamed rows: one format
    # call per coordinate and value, nonfinite values spelled out
    def fmt(v):
        if np.isneginf(v):
            return "-inf"
        if np.isposinf(v):
            return "inf"
        if np.isnan(v):
            return "nan"
        return format(v, ".17g")

    lines = [header, "x,y,value"]
    for iy in range(len(ys)):
        for ix in range(len(xs)):
            lines.append(
                f"{format(xs[ix], '.17g')},{format(ys[iy], '.17g')},"
                f"{fmt(vals[iy * len(xs) + ix])}"
            )
    return "\n".join(lines) + "\n"


def test_grid_csv_matches_per_cell_formatter(tiny_cfg, tmp_path, monkeypatch):
    special = np.array([-np.inf, np.inf, np.nan, -np.nan, -0.0, 0.0, 5e-324,
                        -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0])

    def plane(z):
        vals = z.real * np.pi + z.imag / 7.0
        vals[::3] = np.resize(special, vals[::3].size)
        return vals

    monkeypatch.setattr(
        certify, "_grid_functions", lambda cfg, built: {"sigma": ("z-plane", plane)}
    )
    out = tmp_path / "special.csv"
    region = "-1.5:2.25,-0.3:0.7"
    export = emit_grid("sigma", "none", region, (13, 7), str(out), tiny_cfg)
    header = f"# axes=re(z),im(z) slice=none region={region} res=13x7 function=sigma"
    xs, ys = np.linspace(-1.5, 2.25, 13), np.linspace(-0.3, 0.7, 7)
    assert out.read_text() == _per_cell_csv(header, xs, ys, export.values)


@pytest.mark.parametrize(
    "fid, slice_spec, region, res, digest",
    [
        ("u", "none", "-1.6:1.6,-1.6:1.6", (41, 41),
         "902a1ce9ff6b1cc5a6f39bb5fb6d01a045a7a82b9b35bedc013bb94d0680b68e"),
        ("d1", "w=0", "-1:1,-1:1", (3, 3),
         "1af2c172958f9984b9103fa34f2b913caf654806d3b15f57c6d0bc1d7deeb112"),
    ],
    ids=["u-41x41", "d1-3x3"],
)
def test_grid_export_bytes_pinned(fid, slice_spec, region, res, digest,
                                  tiny_cfg, tmp_path):
    # digests of the per-cell writer's output for the same exports
    out = tmp_path / f"{fid}.csv"
    emit_grid(fid, slice_spec, region, res, str(out), tiny_cfg)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_grid_levi_floor_on_window_slice(tiny_cfg, tmp_path):
    out = tmp_path / "levi.csv"
    export = emit_grid(
        "levi_thm2", "w=0", "-0.9:0.9,-0.9:0.9", (12, 12), str(out), tiny_cfg
    )
    assert np.all(export.values >= -tiny_cfg.psd_tol)


def test_grid_unknown_function(tiny_cfg, tmp_path):
    with pytest.raises(ConfigError):
        emit_grid("mystery", "none", "-1:1,-1:1", (4, 4),
                  str(tmp_path / "x.csv"), tiny_cfg)
    assert "mystery" not in GRID_FUNCTION_IDS


# --- CLI --------------------------------------------------------------------

def test_cli_certify_pass_and_report(tmp_path, capsys):
    rpt = tmp_path / "report.json"
    sched = tmp_path / "schedule.txt"
    code = main([
        "certify", "lemma3", "--samples", "200",
        "--report", str(rpt), "--dump-schedule", str(sched),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=pass" in out
    assert rpt.read_text().startswith("{")
    assert "taper_radius" in sched.read_text()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["certify", "bogus"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2
    # an oversized step makes the warm-up floor land far from 1
    code = main(["certify", "example1", "--samples", "200",
                 "--fd-step", "9e-3"])
    capsys.readouterr()
    assert code == 1


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    import pshcert.cli as cli_mod

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli_mod, "run_suite", broken)
    assert main(["certify", "lemma3", "--samples", "200"]) == 3
    assert "internal error: operands" in capsys.readouterr().err


def test_cli_unwritable_report_path(capsys):
    code = main(["certify", "lemma3", "--samples", "200",
                 "--report", "/nonexistent-dir/r.json"])
    capsys.readouterr()
    assert code == 2


def test_cli_grid(tmp_path, capsys):
    out = tmp_path / "g.csv"
    # leading-dash option values need the = form
    code = main([
        "grid", "u", "--slice", "none", "--region=-2:2,-2:2",
        "--res", "8x8", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert main([
        "grid", "u", "--slice", "none", "--region=-2:2,-2:2",
        "--res", "8by8", "--out", str(out),
    ]) == 2
