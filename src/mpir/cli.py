"""Command-line interface: tables, simulation, audits, and the TCP demo.

All analytic output is printed as exact fractions; nothing in the tables
passes through floating point, so repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import io
import random
import sys
from fractions import Fraction

from . import audit, gf, net
from .params import Params, compute_FG, integer_M, lj_mj
from .prob import build_prob_table, rate_report
from .protocol import MessageStore

# Download rates of the best known subpacketization-based construction, for
# the same (D, K) grid.  These are reference data points quoted for
# comparison only; that construction is out of scope here and the numbers
# are never recomputed.
BASELINE_SUBPACKETIZED_RATES: dict[tuple[int, int], Fraction] = {
    (2, 3): Fraction(6, 7),
    (2, 4): Fraction(3, 4),
    (2, 5): Fraction(42, 59),
    (2, 6): Fraction(9, 13),
    (2, 7): Fraction(156, 229),
    (2, 8): Fraction(27, 40),
    (2, 9): Fraction(1216, 1811),
    (3, 4): Fraction(12, 13),
    (3, 5): Fraction(6, 7),
    (3, 6): Fraction(4, 5),
    (3, 7): Fraction(324, 415),
    (3, 8): Fraction(876, 1139),
    (3, 9): Fraction(16, 21),
    (3, 10): Fraction(1727, 2280),
    (4, 5): Fraction(20, 21),
    (4, 6): Fraction(10, 11),
    (4, 7): Fraction(20, 23),
    (4, 8): Fraction(5, 6),
    (4, 9): Fraction(605, 736),
    (4, 10): Fraction(883, 1084),
    (4, 11): Fraction(953, 1177),
}


def _emit_table(headers: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(h), *(len(r[c]) for r in rows)) if rows else len(h) for c, h in enumerate(headers)]
    def line(cells: list[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out += [line(r) for r in rows]
    return "\n".join(out) + "\n"


def rate_table_rows(D: int, k_min: int, k_max: int) -> tuple[list[str], list[list[str]]]:
    """Exact rate/bound/gap rows for K = k_min..k_max at fixed D."""
    headers = ["K", "rate", "upper_bound", "gap", "capacity_if_divisible", "baseline_subpacketized"]
    rows = []
    for K in range(k_min, k_max + 1):
        rep = rate_report(Params(K=K, D=D))
        cap, baseline = rep.capacity_if_divisible, BASELINE_SUBPACKETIZED_RATES.get((D, K))
        rows.append([str(K), str(rep.rate), str(rep.upper_bound), str(rep.gap),
                     "" if cap is None else str(cap), "" if baseline is None else str(baseline)])
    return headers, rows


def _cmd_params(args: argparse.Namespace) -> int:
    params = Params(K=args.K, D=args.D, q=args.q, m=args.m)
    l, m = lj_mj(params.D)
    _, mu, sigma = integer_M(params.D)
    F, G = compute_FG(params)
    table = build_prob_table(params)
    rep = rate_report(params)
    print(f"K={params.K} D={params.D} N={params.N} q={params.q} m={params.m}")
    print(f"l = {list(l)}")
    print(f"m = {list(m)}")
    print(f"L = {[str(x) for x in l]}")
    print("M =")  # L on top; row h+2 holds m_{h+1}/m_{h+2} = sigma_h/mu in column h+1
    for row in [l] + [[Fraction(s, mu) if c == h else 0 for c in range(params.D)]
                      for h, s in enumerate(sigma[:-1])]:
        print("  [" + ", ".join(str(x) for x in row) + "]")
    print(f"F = {[str(x) for x in F]}")
    print(f"G = {[str(x) for x in G]}")
    print(f"j* = {table.j_star}")
    print("P (rows i=0..K-D, columns j=1..D):")
    for i, row in enumerate(table.P):
        print(f"  i={i}: (" + ", ".join(str(x) for x in row) + ")")
    print(f"rate R = {rep.rate}")
    print(f"capacity upper bound = {rep.upper_bound}")
    print(f"gap = {rep.gap}")
    if rep.capacity_if_divisible is not None:
        print(f"capacity (D | K) = {rep.capacity_if_divisible}")
    print(f"expected answering servers = {rep.expected_download_factor}")
    return 0


def _cmd_rate_table(args: argparse.Namespace) -> int:
    if args.k_min > args.k_max:
        raise ValueError(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    headers, rows = rate_table_rows(args.D, args.k_min, args.k_max)
    sys.stdout.write(_emit_table(headers, rows, args.format))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = Params(K=args.K, D=args.D, q=args.q, m=args.m)
    if args.rounds < 1:
        raise ValueError(f"--rounds must be >= 1, got {args.rounds}")
    rate = rate_report(params).rate
    rng = random.Random(args.seed)
    rep = audit.recoverability_check(params, args.rounds, rng, MessageStore.random(params, rng))
    print(f"rounds = {args.rounds}, seed = {args.seed}")
    print(f"success rate = {Fraction(rep.successes, args.rounds)}")
    print(f"mean answering servers = {rep.mean_answering} ({float(rep.mean_answering):.4f})")
    print(f"exact expectation      = {rep.expected_answering} "
          f"({float(rep.expected_answering):.4f})")
    print(f"empirical rate = {float(params.D / rep.mean_answering):.6f}")
    print(f"exact rate     = {rate} ({float(rate):.6f})")
    return 0 if rep.passed else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.check == "privacy":
        params = Params(K=args.K, D=args.D, q=args.q)
        table = build_prob_table(params)
        if args.mutate is not None:
            i, j = args.mutate
            try:
                table = audit.perturb_prob_table(table, i, j)
            except ValueError as exc:
                raise ValueError(f"--mutate: {exc}") from None
            print(f"note: auditing a table with P[{i}][{j}] perturbed and renormalized")
        if args.coefficient_level:
            rep = audit.coefficient_privacy_check(params, table)
            print(f"coefficient-level privacy K={params.K} D={params.D} q={params.q}: "
                  f"{rep.demands_checked} demand sets, max TV distance = {rep.max_tv_distance}")
            print("PASS" if rep.passed else "FAIL")
            return 0 if rep.passed else 1
        report = audit.privacy_check(params, table, permute=not args.no_permute)
        print(f"privacy check K={params.K} D={params.D}: "
              f"{report.demands_checked} demand sets, "
              f"max TV distance = {report.max_tv_distance}")
        if report.passed:
            print("PASS: support distributions identical across all demand sets")
            return 0
        print(f"FAIL: {len(report.violations)} violating (W, n, support) entries")
        for v in report.violations[:10]:
            print(f"  W={v.W} vs W={v.W_ref} at server {v.server_n}, "
                  f"support={sorted(v.support)}: {v.p} != {v.p_ref}")
        return 1
    if args.check == "evenness":
        report = audit.evenness_check(args.D)
        for finding in report.findings:
            mj = report.multiplicities[finding.j - 1]
            note = "" if finding.lex_first_even else "  (first-candidate collection was uneven; orbit-balanced one substituted)"
            print(f"j={finding.j}: multiplicity {mj} {'verified' if finding.even else 'NOT met'}{note}")
        print("PASS" if report.passed else "FAIL")
        return 0 if report.passed else 1
    params = Params(K=args.K, D=args.D, q=args.q, m=args.m)
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rng = random.Random(args.seed)
    report = audit.recoverability_check(params, args.trials, rng)
    print(f"recoverability K={params.K} D={params.D} q={params.q} m={params.m}: "
          f"{report.successes}/{report.trials} rounds recovered")
    print(f"mean answering servers = {float(report.mean_answering):.4f}, "
          f"expected = {report.expected_answering} "
          f"({float(report.expected_answering):.4f}), "
          f"sigma = {report.std_error:.4f}")
    ok = report.passed and report.within_3_sigma
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_store_init(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    params = Params(K=args.K, D=args.D, q=args.q, m=args.m)
    net.check_header(params.q, params.K, params.m, args.out)  # before any draw
    store = MessageStore.random(params, rng)
    net.write_store(args.out, store)
    print(f"wrote {args.out}: K={store.K} q={store.q} m={store.m}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        with net.StoreServer(net.read_store(args.store), host=args.host, port=args.port) as server:
            print(f"serving {args.store} on {args.host}:{server.port}", flush=True)
            server.serve_forever()
    except KeyboardInterrupt:  # Ctrl-C, once the with block has closed the server
        return 130
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    params = Params(K=args.K, D=args.D, q=args.q, m=args.m)
    endpoints = []
    for addr in args.endpoints.split(","):
        host, _, port = addr.strip().rpartition(":")
        if not port.isdecimal():
            raise ValueError(f"--endpoints: {addr!r} is not host:port")
        endpoints.append((host[1:-1] if host[:1] + host[-1:] == "[]" else host, int(port)))
    if bad := [x for x in args.W.split(",") if not x.strip().isdecimal()]:
        raise ValueError(f"--W: {bad[0]!r} is not a demand index")
    W = tuple(int(x) for x in args.W.split(","))
    result = net.retrieve(endpoints, W, params, args.seed)
    for idx, msg in zip(sorted(W), result.transcript.recovered):
        print(f"X_{idx} = {list(gf.decode(msg, params.q))}")
    print(f"downloaded bytes = {result.downloaded_bytes}")
    return 0


def _add_instance(p: argparse.ArgumentParser, m: int | None) -> None:
    p.add_argument("--K", type=int, required=True, help="number of messages")
    p.add_argument("--D", type=int, required=True, help="demand size (N = D+1 servers)")
    p.add_argument("--q", type=int, default=None, help="field order (default: smallest prime > D)")
    if m is not None:
        p.add_argument("--m", type=int, default=m, help="message length in field elements")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpir",
        description="Multi-message private retrieval for N = D+1 servers: "
        "exact analysis, simulation, audits, and a TCP demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print all derived quantities for one instance")
    _add_instance(p, m=1)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("rate-table", help="exact rate/bound/gap table over a K range")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.set_defaults(func=_cmd_rate_table)

    p = sub.add_parser("simulate", help="run seeded in-memory retrieval rounds")
    _add_instance(p, m=8)
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("audit", help="privacy / evenness / recoverability checks")
    p.set_defaults(func=_cmd_audit)
    checks = p.add_subparsers(dest="check", required=True)
    # Exact option names only: "--m" would otherwise be read as "--mutate".
    pc = checks.add_parser("privacy", allow_abbrev=False, help="exact privacy, every demand set")
    _add_instance(pc, m=None)
    pc.add_argument("--mutate", type=int, nargs=2, metavar=("I", "J"),
                    help="perturb P[I][J] before auditing (expected to fail)")
    exclusive = pc.add_mutually_exclusive_group()
    exclusive.add_argument("--no-permute", action="store_true",
                           help="audit without the random server permutation (expected to fail)")
    exclusive.add_argument("--coefficient-level", action="store_true",
                           help="audit full coefficient vectors exactly: replays the shipped "
                                "query builder over every random choice (small instances only)")
    pc = checks.add_parser("evenness", help="every sub-block collection is even")
    pc.add_argument("--D", type=int, required=True, help="demand size (N = D+1 servers)")
    pc = checks.add_parser("recoverability", help="seeded rounds recover every demand")
    _add_instance(pc, m=8)
    pc.add_argument("--trials", type=int, default=1000)
    pc.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("store", help="message store utilities")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    pi = store_sub.add_parser("init", help="write a random store file")
    pi.add_argument("--out", required=True)
    _add_instance(pi, m=8)
    pi.add_argument("--seed", type=int, default=0)
    pi.set_defaults(func=_cmd_store_init)

    p = sub.add_parser("serve", help="answer queries against a store file over TCP")
    p.add_argument("--store", required=True)
    p.add_argument("--port", type=int, required=True, help="TCP port (0 picks a free one)")
    p.add_argument("--host", default="127.0.0.1")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("retrieve", help="run one round against running servers")
    p.add_argument("--endpoints", required=True, help="comma-separated host:port, one per server")
    p.add_argument("--W", required=True, help="comma-separated demand indices")
    _add_instance(p, m=8)
    p.add_argument("--seed", type=int, default=None,
                   help="replay only, not private: fixes the queries as a function of W "
                        "(default: fresh OS randomness each round)")
    p.set_defaults(func=_cmd_retrieve)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's exit after a usage error or --help
        return exc.code
    except (ValueError, net.ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
