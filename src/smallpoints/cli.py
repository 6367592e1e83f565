"""Command line front end.

Four commands:

  analyze  full report for one curve: invariants, cross-ratio records,
           and both bound pipelines
  bound    bound report straight from (d, g, N_S, D_K) flags
  batch    analyze a JSON-lines corpus file, one report per line plus
           an aggregate summary
  heights  Weil height enclosures for rationals or polynomial roots

Exit codes: 0 success, 1 input error, 2 internal error: an invariant
violation (a cross-ratio failed its S-unit check, which the theory rules
out) or a computation that gave up with a RuntimeError, which analyze
reports in one "smallpoints: internal error: ..." line, 3 partial batch
failure: batch writes an error record for each line that was an input
error or gave up, and goes on.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .algebraic import algebraic_roots, weil_height
from .bounds import AbcParams, BoundParams, formula_conditions, full_report
from .curve import analyze_curve
from .numeric import DEFAULT_PRECISION, decimal_str
from .polynomial import parse_poly, render_poly

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_PARTIAL = 3

# Above 2**14 bits the bound chains slow 4-6x per doubling, so one argument
# could stall a call or a whole batch; roots caps its precision there too.
_MAX_PRECISION = 1 << 14

TSV_HEADER = "curve\tg\tN_S\tlog10_thm_bound\tlog10_empirical_bound\tsharper_chain"


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for invariant violations, so
    # argument errors must not use argparse's default of 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _abc(text: str) -> AbcParams:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError("--abc expects r,eps or r,eps,c")
    try:
        r, eps = Fraction(parts[0]), Fraction(parts[1])
        c = Fraction(parts[2]) if len(parts) == 3 else Fraction(0)
        return AbcParams(r=r, epsilon=eps, c=c)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad abc parameters: {text!r}") from exc


def _precision(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if not 32 <= n <= _MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"precision must be between 32 and {_MAX_PRECISION} bits"
        )
    return n


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION,
                    help="working precision in bits (default 128, 32 to 16384)")
    sp.add_argument("--out", default=None, help="write output to this path")
    sp.add_argument("--format", choices=("json", "tsv"), default="json")


def _add_bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abc", type=_abc, default=None,
                   help="abc-conjecture parameters r,eps[,c] (enables conditional bounds)")
    p.add_argument("--cdelta", type=_fraction, default=None,
                   help="asserted lower bound for the delta-invariant minimum")
    p.add_argument("--epsilon", type=_positive_fraction, default=Fraction(1),
                   help="slack in the height-from-e(X) step (default 1)")
    p.add_argument("--zograf", action="store_true",
                   help="assert a classical congruence modular curve and use the "
                        "128(g+1) Belyi degree bound")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls, and
    # building costs about a fifth of a `bound` report
    p = _Parser(prog="smallpoints",
                description="Height bounds for small points on hyperelliptic curves over Q.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one curve and bound its small points")
    pa.add_argument("--curve", required=True, help="equation like 'y^2 = x^5 - x'")
    _add_bound_flags(pa)
    _add_common(pa)

    pb = sub.add_parser("bound", help="evaluate the bound formulas for given parameters")
    pb.add_argument("--d", type=int, required=True, help="degree of the number field")
    pb.add_argument("--g", type=int, required=True, help="genus (at least 2)")
    pb.add_argument("--ns", type=int, required=True, help="product of the primes in S")
    pb.add_argument("--dk", type=int, default=1, help="absolute discriminant value (default 1)")
    pb.add_argument("--formula", action="append", default=None,
                    help="restrict the report to this formula id (repeatable)")
    _add_bound_flags(pb)
    _add_common(pb)

    pc = sub.add_parser("batch", help="analyze a JSON-lines corpus file")
    pc.add_argument("corpus", help="path to a JSON-lines file with {\"curve\": ...} records")
    _add_bound_flags(pc)
    _add_common(pc)

    ph = sub.add_parser("heights", help="Weil height enclosures")
    ph.add_argument("values", nargs="+",
                    help="a rational like 3/4, or a polynomial like 'x^2-2' "
                         "(optionally 'x^2-2:0' for one root)")
    _add_common(ph)
    return p


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _analysis_documents(analysis, args):
    """(curve dict, bound report) for an analyzed curve."""
    p = BoundParams(d=1, g=analysis.genus, n_s=analysis.n_s, d_k=1, c_delta=args.cdelta)
    H = None
    extra_caveats = list(analysis.caveats)
    if analysis.normalization is not None:
        H = analysis.normalization.height_multiplicative[1]
    elif not args.zograf:
        extra_caveats.append("no normalization available; empirical pipeline skipped")
    rep = full_report(
        p,
        H_Lambda=H,
        abc=args.abc,
        use_zograf=args.zograf,
        eps=args.epsilon,
        precision=args.precision,
        extra_inputs={"curve": analysis.equation},
        extra_caveats=extra_caveats,
    )
    return analysis.to_dict(), rep


def _thm_log10(rep, g: int) -> float:
    if g == 2:
        return rep.entry("thm_1_3", "h").value.log10_float()
    return rep.entry("thm_1_1", "h").value.log10_float()


def _tsv_row(curve_text: str, g: int, n_s: int, rep) -> str:
    thm = repr(_thm_log10(rep, g))
    emp = "-"
    chain = "-"
    if rep.comparison is not None:
        if "empirical" in rep.comparison:
            log10 = rep.comparison["empirical"]["log10_of_bound"]
            emp = "inf" if log10 is None else repr(log10)
        chain = rep.comparison["sharper_chain"]
    return f"{curve_text}\t{g}\t{decimal_str(n_s)}\t{thm}\t{emp}\t{chain}"


def cmd_analyze(args) -> int:
    try:
        analysis = analyze_curve(args.curve, precision=args.precision)
        curve_doc, rep = _analysis_documents(analysis, args)
    except ValueError as exc:
        print(f"smallpoints: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"smallpoints: internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if args.format == "json":
        _emit(json.dumps({"curve": curve_doc, "bounds": rep.to_dict()}, indent=2), args.out)
    else:
        row = _tsv_row(analysis.equation, analysis.genus, analysis.n_s, rep)
        _emit(TSV_HEADER + "\n" + row, args.out)
    if analysis.parshin_exceptions:
        bad = ", ".join(str(i) for i in analysis.parshin_exceptions)
        print(
            "smallpoints: internal invariant violation: cross-ratio record(s) "
            f"{bad} failed the S-unit check; S should cover every bad prime",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_bound(args) -> int:
    try:
        p = BoundParams(d=args.d, g=args.g, n_s=args.ns, d_k=args.dk, c_delta=args.cdelta)
    except ValueError as exc:
        print(f"smallpoints: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rep = full_report(
        p,
        H_Lambda=None,
        abc=args.abc,
        use_zograf=args.zograf,
        eps=args.epsilon,
        precision=args.precision,
    )
    if args.formula:
        available = {e.formula_id for e in rep.entries}
        for fid in args.formula:
            if fid in available:
                continue
            if "c_delta" in formula_conditions(fid) and p.c_delta is None:
                print(
                    f"smallpoints: formula {fid} needs c_delta and no proven value "
                    f"exists for genus {p.g}; pass --cdelta to assert one",
                    file=sys.stderr,
                )
            else:
                print(f"smallpoints: no formula {fid} for these inputs", file=sys.stderr)
            return EXIT_INPUT
    if args.format == "json":
        if args.formula:
            rep.entries = [e for e in rep.entries if e.formula_id in set(args.formula)]
        _emit(json.dumps(rep.to_dict(), indent=2), args.out)
    else:
        # the summary row reads the whole report; --formula only filters JSON
        _emit(TSV_HEADER + "\n" + _tsv_row("-", p.g, p.n_s, rep), args.out)
    return EXIT_OK


def cmd_batch(args) -> int:
    with open(args.corpus) as fh:
        lines = fh.read().splitlines()
    out_lines = []
    tsv_rows = []
    failed = 0
    parshin_total = 0
    parshin_ok = 0
    log10s = []
    for idx, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or not isinstance(record.get("curve"), str):
                raise ValueError("each line must be a JSON object with a string 'curve'")
            analysis = analyze_curve(record["curve"], precision=args.precision)
            curve_doc, rep = _analysis_documents(analysis, args)
        except (ValueError, KeyError, RuntimeError) as exc:
            failed += 1
            error = f"internal error: {exc}" if isinstance(exc, RuntimeError) else str(exc)
            out_lines.append(json.dumps({"line": idx + 1, "error": error}))
            continue
        parshin_total += 1
        if not analysis.parshin_exceptions:
            parshin_ok += 1
        log10s.append(_thm_log10(rep, analysis.genus))
        out_lines.append(json.dumps({"curve": curve_doc, "bounds": rep.to_dict()}))
        tsv_rows.append(_tsv_row(analysis.equation, analysis.genus, analysis.n_s, rep))
    summary = {
        "total": parshin_total + failed,
        "failed": failed,
        "parshin_ok": f"{parshin_ok}/{parshin_total}",
        "min_log10_thm_bound": min(log10s) if log10s else None,
        "max_log10_thm_bound": max(log10s) if log10s else None,
    }
    if args.format == "json":
        out_lines.append(json.dumps({"summary": summary}))
        _emit("\n".join(out_lines), args.out)
    else:
        _emit("\n".join([TSV_HEADER] + tsv_rows), args.out)
        print(json.dumps({"summary": summary}), file=sys.stderr)
    if failed:
        return EXIT_PARTIAL
    if parshin_ok < parshin_total:
        return EXIT_INVARIANT
    return EXIT_OK


def _height_documents(token: str, precision: int) -> list[dict]:
    try:
        value = Fraction(token)
        lo, hi = weil_height(value, precision)
        return [
            {
                "input": token,
                "value": str(value),
                "degree": 1,
                "height": {"lower": lo.to_json_value(), "upper": hi.to_json_value()},
            }
        ]
    except (ValueError, ZeroDivisionError):
        pass
    index = None
    text = token
    if ":" in token:
        text, _, tail = token.rpartition(":")
        index = int(tail)
    f, _ = parse_poly(text)
    roots = algebraic_roots(f)
    if index is not None:
        if not 0 <= index < len(roots):
            raise ValueError(f"root index {index} out of range for {render_poly(f)}")
        roots = [roots[index]]
    docs = []
    for i, r in enumerate(roots):
        lo, hi = weil_height(r, precision)
        docs.append(
            {
                "input": token,
                "minpoly": render_poly(r.minpoly),
                "root_index": r.index,
                "degree": r.degree,
                "height": {"lower": lo.to_json_value(), "upper": hi.to_json_value()},
            }
        )
    return docs


def cmd_heights(args) -> int:
    docs = []
    for token in args.values:
        try:
            docs.extend(_height_documents(token, args.precision))
        except (ValueError, ZeroDivisionError) as exc:
            print(f"smallpoints: {token!r}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if args.format == "json":
        _emit(json.dumps(docs, indent=2), args.out)
    else:
        rows = ["input\tdegree\theight_lower\theight_upper"]
        for d in docs:
            rows.append(
                "\t".join(
                    [
                        d["input"],
                        str(d["degree"]),
                        d["height"]["lower"]["decimal"],
                        d["height"]["upper"]["decimal"],
                    ]
                )
            )
        _emit("\n".join(rows), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "bound": cmd_bound,
        "batch": cmd_batch,
        "heights": cmd_heights,
    }[args.command]
    try:
        return handler(args)
    except OSError as exc:
        # an unreadable corpus or an unwritable --out path
        print(f"smallpoints: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
