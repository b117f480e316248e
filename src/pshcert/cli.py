"""Command-line interface.

    pshcert certify <suite> [--n N] [--trunc J] [--samples K] [--seed S]
                    [--tol T] [--fd-step H] [--report PATH]
                    [--dump-schedule PATH]
    pshcert grid <function_id> --slice SPEC --region SPEC --res NXxNY
                 --out PATH [--n N] [--trunc J] [--seed S]

Exit codes: 0 all certificates pass, 1 at least one failed, 2 bad usage
or configuration, 3 internal error (any other exception: the program
broke before reaching a verdict).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import fields

from .certify import GRID_FUNCTIONS, SUITES, emit_grid, run_suite, serialize_report
from .config import CertifyConfig, ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pshcert",
        description="sampling certificates for plurisubharmonic constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("certify", help="run a certificate suite")
    pc.add_argument("suite", choices=list(SUITES))
    pc.add_argument("--n", type=int, default=CertifyConfig.n,
                    help="ambient complex dimension")
    pc.add_argument("--trunc", type=int, default=CertifyConfig.trunc,
                    help="series truncation order")
    pc.add_argument("--samples", type=int, default=CertifyConfig.samples,
                    help="samples per certificate")
    pc.add_argument("--seed", type=int, default=CertifyConfig.seed)
    pc.add_argument("--tol", type=float, default=CertifyConfig.tol)
    pc.add_argument("--fd-step", type=float, default=CertifyConfig.fd_step)
    pc.add_argument("--report", metavar="PATH", help="write the canonical report")
    pc.add_argument("--dump-schedule", metavar="PATH",
                    help="write the full-precision schedule export that the "
                         "report's schedule_fingerprint hashes")

    pg = sub.add_parser("grid", help="export a function slice as CSV")
    pg.add_argument("function_id", choices=list(GRID_FUNCTIONS))
    pg.add_argument("--slice", required=True, dest="slice_spec",
                    help='"none", "w=<c>[;<c>...]" or "z=<c>"')
    pg.add_argument("--region", required=True,
                    help="grid rectangle, xmin:xmax,ymin:ymax")
    pg.add_argument("--res", required=True, help="resolution NXxNY")
    pg.add_argument("--out", required=True, help="output CSV path")
    pg.add_argument("--n", type=int, default=CertifyConfig.n)
    pg.add_argument("--trunc", type=int, default=CertifyConfig.trunc)
    pg.add_argument("--seed", type=int, default=CertifyConfig.seed)
    return parser


def _config_from_args(args) -> CertifyConfig:
    # options a subcommand lacks keep their CertifyConfig defaults
    names = {f.name for f in fields(CertifyConfig)}
    return CertifyConfig(
        **{k: v for k, v in vars(args).items() if k in names}
    ).validate()


def _run_certify(args) -> int:
    cfg = _config_from_args(args)
    report = run_suite(args.suite, cfg)
    for cert in report.certificates:
        print(
            f"[{cert.status.upper():4s}] {cert.name}: "
            f"worst_margin={cert.worst_margin:.6e} samples={cert.samples} "
            f"tol={cert.tolerance:g}"
        )
    print(
        f"suite={report.suite} status={report.status} "
        f"certificates={len(report.certificates)} elapsed_ms={report.elapsed_ms}"
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(serialize_report(report))
        print(f"report written to {args.report}")
    if args.dump_schedule:
        with open(args.dump_schedule, "w", encoding="utf-8") as fh:
            fh.write(report.schedule_text)
        print(f"schedule written to {args.dump_schedule}")
    return 0 if report.passed else 1


def _run_grid(args) -> int:
    cfg = _config_from_args(args)
    try:
        nx, ny = (int(v) for v in args.res.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad resolution {args.res!r}, want NXxNY") from exc
    emit_grid(args.function_id, args.slice_spec, args.region, (nx, ny), args.out, cfg)
    print(f"grid {args.function_id} {nx}x{ny} slice={args.slice_spec} "
          f"written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        if args.command == "certify":
            return _run_certify(args)
        return _run_grid(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, never a failed certificate (exit 1)
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
