"""Reports, canonical serialization, grid exports, and the CLI."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from pshcert import certify, constructions
from pshcert.certify import (
    GRID_FUNCTIONS,
    SUITES,
    canonical_json,
    emit_grid,
    parse_region_spec,
    parse_slice_spec,
    run_suite,
    serialize_report,
)
from pshcert.cli import _build_parser, _config_from_args, main
from pshcert.config import (
    MAX_GRID_CELLS,
    MAX_TRUNC,
    PSD_TOL,
    CertifyConfig,
    ConfigError,
)


@pytest.fixture(scope="module")
def tiny_cfg():
    return CertifyConfig(samples=200)


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


def test_config_validation():
    with pytest.raises(ConfigError):
        CertifyConfig(n=1).validate()
    with pytest.raises(ConfigError):
        CertifyConfig(n=9).validate()
    with pytest.raises(ConfigError):
        CertifyConfig(samples=10).validate()
    # outside [1e-5, 1e-4] the finite differences fail for numerical
    # reasons: NaN margins at 1e-300, rounding below, truncation above
    for bad in (0.5, 9e-3, 2e-4, 5e-6, 1e-300, 0.0, float("nan")):
        with pytest.raises(ConfigError):
            CertifyConfig(fd_step=bad).validate()
    for good in (1e-5, 3e-5, 1e-4):
        CertifyConfig(fd_step=good).validate()
    # integer fields take integers only: a float seed used to run as its
    # integer part and echo the float, and a float n or samples raised a raw
    # TypeError after validation
    for bad in (dict(seed=1.5), dict(trunc=True), dict(n=2.0),
                dict(samples=150.5), dict(seed=False), dict(n=np.float64(3))):
        with pytest.raises(ConfigError, match="must be an integer"):
            CertifyConfig(**bad).validate()
    assert CertifyConfig(n=np.int64(3), seed=np.int64(7), samples=np.int32(150)).validate()
    # tol and fd_step take real numbers only: a bool tol used to pass and echo
    # true, and a string one raised a raw TypeError in the range checks
    for bad in (dict(tol=True), dict(tol="1e-6"), dict(fd_step="1e-4"),
                dict(fd_step=False), dict(tol=None), dict(tol=1e-6 + 0j)):
        with pytest.raises(ConfigError, match="must be a real number"):
            CertifyConfig(**bad).validate()
    assert CertifyConfig(tol=np.float64(1e-6), fd_step=np.float32(1e-4)).validate()
    assert CertifyConfig().validate() is not None


@pytest.mark.parametrize("argv", [
    ["certify", "all"],
    ["grid", "u", "--slice", "none", "--region", "0:1,0:1", "--res", "2x2",
     "--out", "g.csv"],
], ids=["certify", "grid"])
def test_cli_defaults_are_config_defaults(argv):
    args = _build_parser().parse_args(argv)
    assert _config_from_args(args) == CertifyConfig()


def test_config_fields_are_the_certify_options():
    # a value that no command line sets is a constant of config, not a field
    args = vars(_build_parser().parse_args(["certify", "all"]))
    not_config = {"command", "suite", "report", "dump_schedule"}
    assert {f.name for f in fields(CertifyConfig)} == set(args) - not_config


def test_grid_options_are_n_trunc_seed():
    # pshcert grid sets exactly these fields, as ints with the fields' defaults
    base = ["grid", "u", "--slice", "none", "--region", "0:1,0:1", "--res", "2x2",
            "--out", "g.csv"]
    not_config = {"command", "function_id", "slice_spec", "region", "res", "out"}
    defaults = {f.name: f.default for f in fields(CertifyConfig)}
    args = vars(_build_parser().parse_args(base))
    assert {k: v for k, v in args.items() if k not in not_config} == {
        k: defaults[k] for k in ("n", "trunc", "seed")}
    args = _build_parser().parse_args(base + ["--n", "3", "--trunc", "7", "--seed", "5"])
    assert [(type(v), v) for v in (args.n, args.trunc, args.seed)] == [
        (int, 3), (int, 7), (int, 5)]


def test_every_benchmark_span_is_installed():
    # perfbench/spans.py raises when a name it wraps is no longer referenced
    # in pshcert, so a refactor that unhooks one fails here, not only in CI
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(root / d) for d in ("src", "perfbench")))
    code = "import spans; spans.install(spans.Tracer()); print('installed')"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


def test_import_loads_no_optional_package():
    # ``import pshcert`` pulls in numpy only: the benchmark times fresh
    # imports, and these installed packages would each add to them
    code = ("import sys, pshcert; "
            "print(' '.join(m for m in ('scipy', 'mpmath', 'hypothesis', 'pytest') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_seed_must_fit_in_int64(capsys):
    # Philox keys go through np.asarray([seed, stream]), which turns
    # float64 from 2**63 on and merges neighbouring seeds
    assert CertifyConfig(seed=2**63 - 1).validate() is not None
    for seed in (2**63, 2**63 + 1, 2**64):
        with pytest.raises(ConfigError):
            CertifyConfig(seed=seed).validate()
    assert main(["certify", "example1", "--seed", str(2**63)]) == 2
    assert "seed" in capsys.readouterr().err


def test_tol_must_be_finite_and_positive(capsys):
    for tol in (float("nan"), float("inf"), 0.0, -1e-6):
        with pytest.raises(ConfigError):
            CertifyConfig(tol=tol).validate()
    for tol in ("nan", "inf"):
        assert main(["certify", "example1", "--tol", tol]) == 2
    assert "tol" in capsys.readouterr().err


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


def test_thm1_series_point_count_pinned(tiny_cfg, monkeypatch):
    # every certificate evaluates the series once on its points; the closure
    # membership reads its tail radii from tail_error_radius, not from a second
    # series pass over its 200 points (78777 points when it did)
    points = []
    series = constructions.series_values

    def counted(schedule, z, trunc):
        points.append(np.size(z))
        return series(schedule, z, trunc)

    monkeypatch.setattr(constructions, "series_values", counted)
    assert run_suite("thm1", tiny_cfg).passed
    assert (sum(points), len(points)) == (78577, 23)


def test_thm2_small_truncation_passes():
    # pole lines must be drawn among the trunc poles of the truncated
    # series, not among all j_max = max(trunc, PLATEAU_CHECKS) poles
    report = run_suite("thm2", CertifyConfig(trunc=10, samples=500))
    assert report.passed, [c.name for c in report.certificates if not c.passed]


# sha256 of serialize_report(run_suite(suite, tiny_cfg at n)); perfbench
# pins only the full-size "all" reports at n = 2 and n = 3
_REPORT_PINS = {
    ("example1", 2): "159f7bbfb528549b569646c40b277b04adb6feb5a8dd34aa8411ebaffcad6b01",
    ("thm1", 2): "8280bb503cec0ccf2baa8e6340467f8e603851580c93538ee5fefca459085e5f",
    ("lemma21", 2): "022d3d7aa5c486eaba7a7bdd10b7279f6656de5f4b11b058b67db13d1362b5c5",
    ("lemma3", 2): "a79c2cc53201290c28cf1cbd2d6a18c5dd547d2e92b5f51197ddb6d2e0d7b4f1",
    ("thm2", 2): "2ff43421dd8ff20f43dc50791e73eda33cbdc26d63ea455dbf39090cff2fad1c",
    ("all", 2): "1ebb44feb5fcc7af9ecc5903c0ee7aeb2d1c8628958f15cc8a7d41bc4e4f02ce",
    ("all", 3): "e04a6d003e9c5545764289ab2a4fb7ed9a14f0d1de82bd3c98986b0ec2dfa34f",
}


@pytest.mark.parametrize("suite, n", list(_REPORT_PINS))
def test_suite_report_bytes_pinned(suite, n, tiny_cfg):
    text = serialize_report(run_suite(suite, replace(tiny_cfg, n=n)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _REPORT_PINS[suite, n]


# sha256 of the "all" report at trunc 400, where sigma_many sums 336 poles
# past its head only where their terms may not round away
_DEEP_REPORT_PINS = {
    2: "d2c845a25bfbdfc1421bf128cd36283c77eaf7b83da31ff83b1e5238f631eec1",
    3: "f9644d041532f5ddab27d21de80e7a8d4fb863690c00d59e572d0fc04fa8312f",
}


@pytest.mark.parametrize("n", list(_DEEP_REPORT_PINS))
def test_deep_truncation_report_bytes_pinned(n, tiny_cfg):
    text = serialize_report(run_suite("all", replace(tiny_cfg, n=n, trunc=400)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _DEEP_REPORT_PINS[n]


@pytest.mark.parametrize("fid, digest", [
    ("sigma", "2412199274f3f52e4d3b805794d43a68f486eed8450876cd3f60cee63fb59667"),
    ("sigma_thm2", "53b09020b880aea325e79ab39c95c940941f8395b40007fb8b8d33044f820711"),
])
def test_longest_series_grid_bytes_pinned(fid, digest, tiny_cfg, tmp_path):
    # 121 x 121 cells at trunc MAX_TRUNC, the longest tail, on a region that
    # crosses the annulus 1 < |z| <= 2 of the poles
    out = tmp_path / f"{fid}.csv"
    emit_grid(fid, "none", "-1.6:1.6,-1.6:1.6", (121, 121), str(out),
              replace(tiny_cfg, trunc=MAX_TRUNC))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the --dump-schedule text of each suite (at --samples 100)
_SCHEDULE_PINS = {
    "example1": "49cc95cf3feb66c7b99c044161ba06bd17412a1d47460ac0f1ff036357495d63",
    "thm1": "bd701e8e852016001fdee1f3c3cdc3ba4a480d9a6b1d18013247d368ebf1fa3f",
    "lemma21": "8615128a9d50b87fd480e1ea903ec5508808c7bb1037cd712ee125cbcd14c40f",
    "lemma3": "6d9695ab9e7915a888a26fff8b99e63b1f68dbc241f389b2f5d69cb4877bef41",
    "thm2": "7950ef204832694b40fc4a0173ac099ca61d380cd266353a139c0de6af9a76e2",
    "all": "eaf6d48dc62ea132e160c88fdd8ba72153c6cf9bb5f7341adf62063cd3807738",
}


def _certify_with_dump(suite, tmp_path):
    rpt, sched = tmp_path / "report.json", tmp_path / "schedule.txt"
    code = main(["certify", suite, "--samples", "100",
                 "--report", str(rpt), "--dump-schedule", str(sched)])
    fingerprint = json.loads(rpt.read_text())["schedule_fingerprint"]
    return code, sched.read_bytes(), fingerprint


@pytest.mark.parametrize("suite", list(_SCHEDULE_PINS))
def test_dump_schedule_bytes_pinned(suite, tmp_path, capsys):
    code, text, fingerprint = _certify_with_dump(suite, tmp_path)
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256(text).hexdigest()
    assert digest == _SCHEDULE_PINS[suite]
    assert fingerprint == "sha256:" + digest


def test_dump_schedule_after_construction_failure(monkeypatch, tmp_path, capsys):
    # the dump is the text the failing report fingerprints, not a rebuild
    # that raises a second time
    def broken(*args, **kwargs):
        raise RuntimeError("tapered form: sampled Levi floor 0.0 is not positive")

    monkeypatch.setattr(certify, "build_tapered_form", broken)
    code, text, fingerprint = _certify_with_dump("lemma3", tmp_path)
    capsys.readouterr()
    assert code == 1
    assert text == b"# construction failed\n"
    assert fingerprint == "sha256:" + hashlib.sha256(text).hexdigest()


def test_unknown_suite_rejected(tiny_cfg):
    with pytest.raises(ConfigError):
        run_suite("nope", tiny_cfg)


def test_construction_failure_becomes_failing_report(tiny_cfg, monkeypatch):
    import pshcert.certify as certify_mod

    def broken(*args, **kwargs):
        raise RuntimeError("tapered form: sampled Levi floor 0.0 is not positive")

    monkeypatch.setattr(certify_mod, "build_tapered_form", broken)
    report = run_suite("lemma3", tiny_cfg)
    assert not report.passed
    assert report.certificates[0].name == "construction-failure"
    assert "not positive" in report.certificates[0].witnesses[0]["error"]
    assert serialize_report(report)


@pytest.mark.parametrize("suite", ["lemma3", "thm2", "all"])
def test_non_positive_floor_fails_every_form_report(suite, tiny_cfg, monkeypatch):
    # the witness reads the form's constant C only, but the thm2 and all
    # schedule texts still record the form, so its floor still decides them
    monkeypatch.setattr(constructions.TaperedForm, "sampled_epsilon",
                        lambda self, n, count, seed: 0.0)
    report = run_suite(suite, tiny_cfg)
    assert [c.name for c in report.certificates] == ["construction-failure"]
    assert "not positive" in report.certificates[0].witnesses[0]["error"]
    assert report.schedule_text == "# construction failed\n"


def test_suite_builder_objects_freed_without_cycle_collector():
    # a finished run's scenarios (and their screen tables) are freed by
    # reference counting, not whenever the cyclic collector next runs
    import gc
    import weakref

    built = certify.SuiteBuilder(CertifyConfig(samples=100))
    assert built.thm2.small_c.hex() == built.form.small_c.hex()
    refs = [weakref.ref(built.thm1), weakref.ref(built.thm2)]
    gc.disable()
    try:
        del built
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [2, 3])
def test_schedule_texts_state_the_built_w0(n):
    # the schedule exports read w0's modulus from the constants that the
    # scenarios are built with
    built = certify.SuiteBuilder(CertifyConfig(n=n, samples=100))
    for text, sc in ((certify._thm1_text(built), built.thm1),
                     (certify._thm2_text(built), built.thm2)):
        line = next(ln for ln in text.splitlines() if ln.startswith("# w0_modulus="))
        assert float(line.split("=")[1]) == abs(sc.w0[0]), line


def test_psh_sample_shortfall_becomes_failing_report(monkeypatch):
    # an exclusion radius beyond the example1 window leaves no point to
    # certify; the report says so instead of certifying an empty set
    from pshcert import constructions

    monkeypatch.setattr(constructions, "EXAMPLE1_EXCLUSION", 10.0)
    cfg = CertifyConfig(samples=100)
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


def test_malformed_slice_value_is_config_error(tmp_path, capsys):
    for spec in ("w=abc", "z=1+", "w=1j;;x", "w=nan", "w=inf", "w=-inf",
                 "w=1+nanj", "z=infj"):
        with pytest.raises(ConfigError, match="slice"):
            parse_slice_spec(spec, 2)
    out = tmp_path / "d1.csv"
    for spec in ("w=abc", "w=nan", "w=inf"):
        code = main(["grid", "d1", "--slice", spec, "--region=-1:1,-1:1",
                     "--res", "3x3", "--out", str(out)])
        assert code == 2
        assert "slice" in capsys.readouterr().err
        assert not out.exists()


def test_z_plane_grid_with_a_slice_is_config_error(tmp_path, capsys):
    # sigma, sigma_thm2 and u are functions of z alone: a w= or z= slice
    # would label the z-plane with a slice it never took
    out = tmp_path / "g.csv"
    for fid in ("sigma", "sigma_thm2", "u"):
        for spec in ("w=0", "z=0.5"):
            with pytest.raises(ConfigError, match="slice none"):
                emit_grid(fid, spec, "-1:1,-1:1", (2, 2), str(out), CertifyConfig())
            code = main(["grid", fid, "--slice", spec, "--region=-1:1,-1:1",
                         "--res", "2x2", "--out", str(out)])
            assert code == 2
            assert "slice none" in capsys.readouterr().err
            assert not out.exists()


def test_nonfinite_region_is_config_error(tmp_path, capsys):
    for spec in ("-inf:inf,0:1", "0:1,-inf:1", "nan:1,0:1", "0:1,0:inf"):
        with pytest.raises(ConfigError, match="finite"):
            parse_region_spec(spec)
    out = tmp_path / "sigma.csv"
    code = main(["grid", "sigma", "--slice", "none", "--region=-inf:inf,0:1",
                 "--res", "3x2", "--out", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_grid_row_count_and_values(tiny_cfg, tmp_path):
    out = tmp_path / "sigma.csv"
    values = emit_grid("sigma", "none", "-3:3,-3:3", (200, 200), str(out), tiny_cfg)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# axes=re(z),im(z)")
    assert lines[1] == "x,y,value"
    assert len(lines) == 2 + 200 * 200
    assert values.size == 40_000


def test_grid_u_equals_square_inside_disk(tiny_cfg, tmp_path):
    out = tmp_path / "u.csv"
    values = emit_grid("u", "none", "-3:3,-3:3", (41, 41), str(out), tiny_cfg)
    xs = np.linspace(-3, 3, 41)
    gx, gy = np.meshgrid(xs, xs)
    inside = (gx**2 + gy**2).ravel() <= 1.0
    np.testing.assert_array_equal(values[inside], (gx**2 + gy**2).ravel()[inside])


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

    monkeypatch.setitem(GRID_FUNCTIONS, "sigma", ("z-plane", lambda b, z: plane(z)))
    out = tmp_path / "special.csv"
    region = "-1.5:2.25,-0.3:0.7"
    values = emit_grid("sigma", "none", region, (13, 7), str(out), tiny_cfg)
    header = f"# axes=re(z),im(z) slice=none region={region} res=13x7 function=sigma"
    xs, ys = np.linspace(-1.5, 2.25, 13), np.linspace(-0.3, 0.7, 7)
    assert out.read_text() == _per_cell_csv(header, xs, ys, values)


def test_grid_row_template_matches_format(tiny_cfg, tmp_path, monkeypatch):
    # emit_grid formats each row with one % on a per-column template; its
    # "%.17g" must render every value as format(v, ".17g") does
    special = [np.inf, -np.inf, np.nan, -np.nan, -0.0, 0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e300, -1e300, 1e-300, 0.1, 1.0 / 3.0,
               -123456789.125, 2.0**53 + 2.0]
    for v in special:
        assert "%.17g" % v == format(v, ".17g")
    vals = np.resize(np.array(special), 7 * 5)
    monkeypatch.setitem(GRID_FUNCTIONS, "sigma", ("z-plane", lambda b, z: vals.copy()))
    out = tmp_path / "template.csv"
    emit_grid("sigma", "none", "-1e300:1e-300,-0.5:2", (7, 5), str(out), tiny_cfg)
    xs, ys = np.linspace(-1e300, 1e-300, 7), np.linspace(-0.5, 2.0, 5)
    rows = out.read_text().splitlines()[2:]
    assert rows == [f"{format(x, '.17g')},{format(y, '.17g')},{format(v, '.17g')}"
                    for (y, x), v in zip([(y, x) for y in ys for x in xs], vals)]


@pytest.mark.parametrize("fid, slice_spec, region", [
    ("sigma", "none", "-1.6:1.6,-1.6:1.6"),
    ("u", "none", "-1.6:1.6,-1.6:1.6"),
    ("d2", "w=0.5", "-2:2,-2:2"),
    ("levi_thm1", "z=0.7", "-0.9:0.9,-0.9:0.9"),
    ("phi_thm2", "w=0.5;0.2", "-2:2,-2:2"),
])
def test_grid_blocks_keep_the_bytes(fid, slice_spec, region, tiny_cfg, tmp_path, monkeypatch):
    # the default block holds the whole 11 x 7 grid; one-row blocks and
    # 3-row blocks (7 = 3 + 3 + 1) must write the same bytes and values
    nx, ny = 11, 7
    cfg = replace(tiny_cfg, n=2 + slice_spec.count(";"))
    got = []
    for block in (certify._BLOCK, 1, 3 * nx):
        monkeypatch.setattr(certify, "_BLOCK", block)
        out = tmp_path / f"{block}.csv"
        values = emit_grid(fid, slice_spec, region, (nx, ny), str(out), cfg)
        got.append((out.read_bytes(), values.tobytes()))
    assert got[1] == got[0] and got[2] == got[0]


def test_grid_csv_matches_per_cell_formatter_at_block_edges(tiny_cfg, tmp_path,
                                                              monkeypatch):
    # the special values of test_grid_csv_matches_per_cell_formatter open
    # every 2-row block and, reversed, close it, so each block edge sits
    # between two runs of them
    special = np.array([-np.inf, np.inf, np.nan, -np.nan, -0.0, 0.0, 5e-324,
                        -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0])

    def plane(z):
        vals = z.real * np.pi + z.imag / 7.0
        vals[: special.size] = special
        vals[-special.size:] = special[::-1]
        return vals

    monkeypatch.setitem(GRID_FUNCTIONS, "sigma", ("z-plane", lambda b, z: plane(z)))
    monkeypatch.setattr(certify, "_BLOCK", 2 * 13)
    out = tmp_path / "special.csv"
    region = "-1.5:2.25,-0.3:0.7"
    values = emit_grid("sigma", "none", region, (13, 7), str(out), tiny_cfg)
    for lo in range(0, 13 * 6, 2 * 13):  # the full blocks; the last is 1 row
        assert values[lo : lo + special.size].tobytes() == special.tobytes()
    header = f"# axes=re(z),im(z) slice=none region={region} res=13x7 function=sigma"
    xs, ys = np.linspace(-1.5, 2.25, 13), np.linspace(-0.3, 0.7, 7)
    assert out.read_text() == _per_cell_csv(header, xs, ys, values)


def test_grid_memory_does_not_grow_with_resolution(tmp_path):
    # the traced peak grows by the returned values (8 bytes per cell) alone:
    # 128 columns make one 16384-cell block of 128 rows, so 768 rows run 6
    # blocks of the same shape. Evaluated all at once, the peak grew by about
    # 58 bytes per cell (9.3 MiB for a 400 x 400 sigma export). Few columns
    # keep the test short: tracemalloc makes each written cell cost 10-20 us
    cfg = CertifyConfig()

    def peak(ny):
        tracemalloc.start()
        try:
            emit_grid("sigma", "none", "-1.6:1.6,-1.6:1.6", (128, ny),
                      str(tmp_path / "g.csv"), cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)
    small, large = peak(128), peak(768)
    assert large - small <= 8 * 128 * (768 - 128) + 2**20, (small, large)


def test_grid_error_leaves_the_target_as_it_was(tiny_cfg, tmp_path, monkeypatch, capsys):
    # the grid is evaluated block by block before the file is opened, so an
    # error in the second block must neither create nor change out_path
    calls = []

    def second_block_raises(b, z):
        calls.append(z.size)
        if len(calls) == 2:
            raise RuntimeError("second block")
        return z.real.copy()

    monkeypatch.setitem(GRID_FUNCTIONS, "sigma", ("z-plane", second_block_raises))
    monkeypatch.setattr(certify, "_BLOCK", 2 * 4)
    out = tmp_path / "g.csv"
    with pytest.raises(RuntimeError, match="second block"):
        emit_grid("sigma", "none", "-1:1,-1:1", (4, 6), str(out), tiny_cfg)
    assert calls == [8, 8] and list(tmp_path.iterdir()) == []
    out.write_bytes(b"old bytes\n")
    calls.clear()
    argv = ["grid", "sigma", "--slice", "none", "--region=-1:1,-1:1", "--res", "4x6",
            "--out", str(out)]
    assert main(argv) == 3
    assert "internal error: second block" in capsys.readouterr().err
    assert out.read_bytes() == b"old bytes\n" and list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize(
    "fid, slice_spec, region, res, digest",
    [
        ("u", "none", "-1.6:1.6,-1.6:1.6", (41, 41),
         "902a1ce9ff6b1cc5a6f39bb5fb6d01a045a7a82b9b35bedc013bb94d0680b68e"),
        ("d1", "w=0", "-1:1,-1:1", (3, 3),
         "1af2c172958f9984b9103fa34f2b913caf654806d3b15f57c6d0bc1d7deeb112"),
        # the levi grids cross re z = 0; the z-slice repeats one z in every cell
        ("levi_thm1", "w=0", "-0.9:0.9,-0.9:0.9", (9, 9),
         "0758c8343e3a5eb2a341019203bda172d6aa427e2328ce33c3b65f067fc8b523"),
        ("levi_thm2", "w=0", "-0.9:0.9,-0.9:0.9", (9, 9),
         "1db4072a7735606726a6632ac509a5a2a1d05c483433b2d3bd052301c5c4792b"),
        ("levi_thm1", "z=0.7", "-0.9:0.9,-0.9:0.9", (5, 5),
         "5e864a47a1e0e97f80177636783bfa09f1b96e23159df8c7ad49f324e25ebeb9"),
        # the witness across the plateau discs and the end of its taper at
        # |z| = 1, at n = 2 and (one more w value) n = 3
        ("phi_thm2", "w=0.5", "-2:2,-2:2", (41, 41),
         "48af4d854c2ae0fae99e9c1447f8e8e6071718cf1dec807e62738acba73314ae"),
        ("phi_thm2", "w=0.5;0.2", "-2:2,-2:2", (41, 41),
         "1fe62b67dba3c423ceca5bf68a8f5001123420b34aec76c5829f13b85889b787"),
    ],
    ids=["u-41x41", "d1-3x3", "levi_thm1-9x9", "levi_thm2-9x9", "levi_thm1-zslice-5x5",
         "phi_thm2-41x41", "phi_thm2-n3-41x41"],
)
def test_grid_export_bytes_pinned(fid, slice_spec, region, res, digest,
                                  tiny_cfg, tmp_path):
    # digests of the per-cell writer's output for the same exports
    out = tmp_path / f"{fid}.csv"
    n = 2 + slice_spec.count(";")  # a w= slice holds n - 1 values
    emit_grid(fid, slice_spec, region, res, str(out), replace(tiny_cfg, n=n))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fid, n, digest", [
    ("levi_thm1", 4, "077681fbd604dce5fd0d11c2920f624e43aa1562220e2d95580eec6b7f15e252"),
    ("levi_thm1", 8, "4f28bfa502561e137280cc9db663833e26721dcf0362de0b798564c1a9537a99"),
    ("levi_thm2", 4, "7dc1c3576e49b23b57c06666c12d037ce99655de4196f60122838c94d80f38ad"),
    ("levi_thm2", 8, "c96a2bd0b1a74345052cefbaac037151c821421304f93d58e2b866a97df6836b"),
], ids=["levi_thm1-n4", "levi_thm1-n8", "levi_thm2-n4", "levi_thm2-n8"])
def test_large_n_levi_grid_bytes_pinned(fid, n, digest, tiny_cfg, tmp_path):
    # the n >= 4 Levi path: 113- and 481-row stencils and Jacobi eigenvalues
    # of 4x4 and 8x8 Hessians, on 40 x 40 cells at w = 0.3 on every axis
    out = tmp_path / f"{fid}.csv"
    emit_grid(fid, "w=" + ";".join(["0.3"] * (n - 1)), "-0.9:0.9,-0.9:0.9", (40, 40),
              str(out), replace(tiny_cfg, n=n))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_grid_levi_floor_on_window_slice(tiny_cfg, tmp_path):
    out = tmp_path / "levi.csv"
    values = emit_grid(
        "levi_thm2", "w=0", "-0.9:0.9,-0.9:0.9", (12, 12), str(out), tiny_cfg
    )
    assert np.all(values >= -PSD_TOL)


def test_sigma_thm2_grid_builds_no_tapered_form(tiny_cfg, tmp_path, monkeypatch):
    # the thm2 series depends on the plateau discs only
    def broken(*args, **kwargs):
        raise RuntimeError("tapered form: sampled Levi floor 0.0 is not positive")

    monkeypatch.setattr(certify, "build_tapered_form", broken)
    values = emit_grid("sigma_thm2", "none", "-1:1,-1:1", (3, 3),
                       str(tmp_path / "s.csv"), tiny_cfg)
    assert values.size == 9


def test_d2_grid_builds_no_tapered_form(tiny_cfg, tmp_path, monkeypatch):
    # the thm2 domain reads the plateau schedule only, and the witness the
    # form's constant C only, so neither grid builds the form
    def broken(*args, **kwargs):
        raise RuntimeError("tapered form: sampled Levi floor 0.0 is not positive")

    monkeypatch.setattr(certify, "build_tapered_form", broken)
    values = emit_grid("d2", "w=0.5", "-1:1,-1:1", (3, 3),
                       str(tmp_path / "d.csv"), tiny_cfg)
    assert values.size == 9
    values = emit_grid("phi_thm2", "w=0.5", "-1:1,-1:1", (3, 3),
                       str(tmp_path / "p.csv"), tiny_cfg)
    assert values.size == 9 and len((tmp_path / "p.csv").read_text().splitlines()) == 11


#: the five grid exports of the grid-deep benchmark batch at input seed 42
_GRID_DEEP_EXPORTS = (
    ("sigma", "none", "-1.6:1.6,-1.6:1.6", "400x400"),
    ("u", "none", "-1.6:1.6,-1.6:1.6", "400x400"),
    ("d2", "w=0.5", "-2:2,-2:2", "400x400"),
    ("levi_thm1", "w=0", "-0.95:0.95,-0.95:0.95", "150x150"),
    ("levi_thm2", "w=0", "-0.9:0.9,-0.9:0.9", "150x150"),
)


def test_grid_exports_probe_only_the_plateau_discs_they_read(tmp_path, monkeypatch):
    # each export builds a fresh plateau, whose eps_j is probed the first time
    # disc j is read: u probes exactly the discs where u_many reads eps, d2
    # probes every disc for the one thm2 schedule of its series, and the
    # other exports, levi_thm2's witness included, probe none. No export
    # samples the tapered form's floor: the witness reads its constant C only
    probed, read, thm2_schedules, floors = [], set(), [], []
    real_probe = constructions._DiscEps._probe
    real_u, real_schedule = constructions.kernels.u_many, constructions.make_schedule

    def counted_probe(self, discs):
        probed.extend(discs.tolist())
        return real_probe(self, discs)

    class RecordedReads:
        def __init__(self, eps):
            self.eps = eps

        def __getitem__(self, j):
            read.add(j)
            return self.eps[j]

    def counted_schedule(kind, *args):
        if kind == "thm2":
            thm2_schedules.append(args)
        return real_schedule(kind, *args)

    monkeypatch.setattr(constructions._DiscEps, "_probe", counted_probe)
    monkeypatch.setattr(constructions.kernels, "u_many",
                        lambda *args: real_u(*args[:-1], RecordedReads(args[-1])))
    monkeypatch.setattr(constructions, "make_schedule", counted_schedule)
    real_floor = constructions.TaperedForm.sampled_epsilon
    monkeypatch.setattr(constructions.TaperedForm, "sampled_epsilon",
                        lambda *args: floors.append(args[1:]) or real_floor(*args))
    for fid, slice_spec, region, res in _GRID_DEEP_EXPORTS:
        probed.clear()
        read.clear()
        thm2_schedules.clear()
        assert main(["grid", fid, "--slice", slice_spec, f"--region={region}", "--res", res,
                     "--trunc", "400", "--seed", "42", "--out", str(tmp_path / "g.csv")]) == 0
        assert len(thm2_schedules) == (fid == "d2"), fid
        assert floors == [], fid
        if fid == "u":
            assert sorted(probed) == sorted(read) and len(probed) == 7
        elif fid == "d2":
            assert sorted(probed) == list(range(400))
        else:
            assert probed == [], fid


def test_grid_unknown_function(tiny_cfg, tmp_path):
    with pytest.raises(ConfigError):
        emit_grid("mystery", "none", "-1:1,-1:1", (4, 4),
                  str(tmp_path / "x.csv"), tiny_cfg)
    assert "mystery" not in GRID_FUNCTIONS


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


def test_cli_exit_codes(monkeypatch, capsys):
    assert main(["certify", "bogus"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2
    # an oversized step is a configuration error, not a failed certificate
    assert main(["certify", "example1", "--samples", "200", "--fd-step", "9e-3"]) == 2
    # the warm-up function at half scale has the same domain but Levi
    # floor 1/2, so example1-floor-near-one fails
    from pshcert import constructions

    example_defining = constructions.example_defining
    monkeypatch.setattr(constructions, "example_defining",
                        lambda pts: 0.5 * example_defining(pts))
    code = main(["certify", "example1", "--samples", "200"])
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


def test_cli_grid_oversized_resolution_exits_2(tmp_path, capsys, monkeypatch):
    # 30000x30000 cells raised numpy's _ArrayMemoryError (a 6.71 GiB mesh)
    # under a 1.5 GB address-space limit and exited 3; the cell cap now
    # rejects it before any grid array is allocated, and writes no file
    class Allocated(Exception):
        pass

    def no_allocation(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(certify.np, "linspace", no_allocation)
    out = tmp_path / "g.csv"
    code = main(["grid", "sigma", "--slice", "none", "--region=-1:1,-1:1",
                 "--res", "30000x30000", "--out", str(out)])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists()
    # the cap admits exactly MAX_GRID_CELLS cells
    cfg = CertifyConfig()
    with pytest.raises(ConfigError):
        emit_grid("sigma", "none", "-1:1,-1:1", (2**11, 2**11 + 1), str(out), cfg)
    with pytest.raises(Allocated):
        emit_grid("sigma", "none", "-1:1,-1:1", (2**11, 2**11), str(out), cfg)
    assert MAX_GRID_CELLS == 2**22 and not out.exists()


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
