"""Command line surface.

All integers are printed as decimal strings (values overflow 64-bit from
m around 16 on) and rationals as {"num": ..., "den": ...} objects.  Exit
codes: 0 for success / verified, 2 when a verification scan found a
counterexample, 1 for any error (including bad usage, so that 2 stays
reserved for counterexamples) and for a scan stopped by Ctrl-C or SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import asdict

# each command imports the layers it runs, so a cold start loads only these
from . import bernoulli
from .exact import allow_big_str, to_jsonable

USAGE_ERROR = 1

# genera.GENERA + ("S",) and sorted(verify.CLAIMS), held here so that building the
# parser imports neither module (a test keeps them equal)
GENUS_CHOICES = ("L", "Ahat", "Ph", "AhatPh", "S")
CLAIM_CHOICES = ("gcd-power-of-two", "identity-suite", "numerator-coprimality")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means "counterexample" here
    def error(self, message):  # noqa: D102
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _record_fields(rec: bernoulli.BernoulliRecord) -> dict:
    q = rec.abs_value
    row = dict(n=rec.n, abs_num=q.numerator, abs_den=q.denominator, num4=rec.num4, j=rec.j)
    return to_jsonable(row)


def _emit(data) -> None:
    print(json.dumps(to_jsonable(data), indent=2))


def _cmd_bernoulli(args) -> int:
    if args.range:
        records = list(bernoulli.record_range(args.n))
    else:
        records = [bernoulli.bernoulli_record(args.n)]
    rows = [_record_fields(r) for r in records]
    if args.format == "json":
        _emit(rows if args.range else rows[0])
    elif args.format == "csv":
        print("n,abs_num,abs_den,num4,j")
        for row in rows:
            print(",".join(row.values()))
    else:
        for row in rows:
            print(
                f"n={row['n']}  |B|={row['abs_num']}/{row['abs_den']}  "
                f"num4={row['num4']}  j={row['j']}"
            )
    return 0


def _cmd_coeffs(args) -> int:
    from . import genera

    if args.genus == "S":
        g = genera.stolz_class_coeffs(args.m)
    else:
        g = genera.genus_coeffs(args.genus, args.m)
    data = {
        "genus": args.genus,
        "m": args.m,
        "coeff_p_top": g.coeff_p_top,
        "coeff_p_half_sq": g.coeff_p_half_sq,
    }
    if args.format == "json":
        _emit(data)
    else:
        print(
            f"{args.genus}_{args.m}: p_top {g.coeff_p_top}, "
            f"p_half^2 {g.coeff_p_half_sq}"
        )
    return 0


def _cmd_plumbing(args) -> int:
    from . import plumbing

    prof = plumbing.profile(args.m)
    even = args.m % 2 == 0
    data = to_jsonable(
        {
            "m": args.m,
            "sigma_m": prof.sigma,
            "bp_order": plumbing.bp_order(args.m),
            "pk2_Q": plumbing.pk2_of_Q(args.m // 2) if even else None,
            "s_Q": plumbing.s_of_Q(args.m) if args.m >= 2 else None,
            "bezout": asdict(prof.bezout) if even else None,
        }
    )
    if args.format == "json":
        _emit(data)
    else:
        for key, value in data.items():
            print(f"{key}: {value}")
    return 0


def _variant(name: str) -> str:
    return {"full": "full_kernel", "sig4": "signature_in_4Z"}[name]


def _cmd_lattice(args) -> int:
    from . import lattices

    basis = lattices.generator_invariants(args.m, args.ord, _variant(args.variant))
    structure = lattices.kernel_structure(args.m, args.ord)
    rows = [to_jsonable({"label": label, **asdict(v)}) for label, v in basis.generators]
    if args.format == "csv":
        print("label,sigma,ahat,p_top,p_half_sq")
        for row in rows:
            print(",".join(row.values()))
    else:
        _emit(
            {
                "m": args.m,
                "ord": args.ord,
                "variant": basis.variant,
                "structure": str(structure),
                "generators": rows,
            }
        )
    return 0


def _cmd_minimal(args) -> int:
    from . import lattices

    value, exponent = lattices.minimal_signature(args.m, args.ord)
    _emit(
        {
            "m": args.m,
            "ord": args.ord,
            "minimal_signature": value,
            "exponent_i": exponent,
            "minimal_ahat": lattices.minimal_ahat(args.m) if args.m >= 2 else None,
        }
    )
    return 0


def _cmd_bundle(args) -> int:
    from . import bundles

    report = bundles.divisibility_report(args.m, args.ord)
    _emit(
        {
            "m": report.m,
            "ord": report.ord,
            "signature_divisor": report.signature_divisor,
            "ahat_divisor": report.ahat_divisor,
            "signature_4_realizable": bundles.signature_4_realizable(args.m),
            "realizable_at_genus": report.realizable_at_genus,
            "non_admissible_signature_divisor": report.non_admissible_signature_divisor,
            "non_admissible_ahat_divisor": report.non_admissible_ahat_divisor,
        }
    )
    return 0


def _cmd_kappa_basis(args) -> int:
    from . import bundles

    exprs = bundles.kappa_basis(args.m, args.ord)
    _emit({"m": args.m, "ord": args.ord, "basis": [asdict(e) for e in exprs]})
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    fn = verify.CLAIMS[args.claim]
    if args.max is not None:
        m_max = args.max
    elif args.full:
        m_max = verify.FULL_RANGES[args.claim]
    else:
        m_max = verify.DESK_RANGES[args.claim]
    # SIGTERM raises KeyboardInterrupt like Ctrl-C, so the scan saves its checkpoint
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        report = fn(m_max, workers=args.workers, checkpoint_path=args.checkpoint)
    except KeyboardInterrupt:
        # the scan has saved its checkpoint on the way out
        saved = f"; checkpoint saved to {args.checkpoint}" if args.checkpoint else ""
        print(f"interrupted: {args.claim} scan stopped{saved}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print("m,kind,detail")
        for w in report.counterexamples:
            rest = {k: v for k, v in w.items() if k not in ("m", "kind")}
            detail = ";".join(f"{k}={v}" for k, v in rest.items())
            print(f"{w['m']},{w.get('kind', '')},{detail}")
    else:
        print(
            f"{report.claim}: {report.status} on {report.m_min}..{report.m_max} "
            f"({report.wall_time_seconds:.1f}s)"
        )
        for w in report.counterexamples:
            print(f"  m={w['m']} {w}")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hclat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="Bernoulli/tangent records")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--range", action="store_true", help="emit all records 1..n")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(fn=_cmd_bernoulli)

    p = sub.add_parser("coeffs", help="genus coefficients on {p_top, p_half^2}")
    p.add_argument("--genus", choices=GENUS_CHOICES, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("plumbing", help="plumbing invariants in dimension 4m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(fn=_cmd_plumbing)

    p = sub.add_parser("lattice", help="characteristic-number lattice generators")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ord", type=int, default=1)
    p.add_argument("--variant", choices=("full", "sig4"), default="full")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("minimal", help="minimal signature and A-hat genus")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ord", type=int, default=1)
    p.set_defaults(fn=_cmd_minimal)

    p = sub.add_parser("bundle", help="divisibility for bundles over surfaces")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ord", type=int, default=1)
    p.set_defaults(fn=_cmd_bundle)

    p = sub.add_parser("kappa-basis", help="integral kappa-class basis")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ord", type=int, default=1)
    p.set_defaults(fn=_cmd_kappa_basis)

    p = sub.add_parser("verify", help="long-range verification scans")
    p.add_argument("claim", choices=CLAIM_CHOICES)
    p.add_argument("--max", type=int, default=None, help="scan bound on m")
    p.add_argument(
        "--full",
        action="store_true",
        help="use the full published range (the m <= 42000 coprimality range has "
        "not been run; see ROADMAP item 6)",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", default=None, help="checkpoint file path")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    allow_big_str()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
