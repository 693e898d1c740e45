"""mpir benchmark: loopback TCP rounds, bulk in-memory rounds, the exact privacy audit.

Run from the repository root (the package is imported from src/):

    python3 perfbench/run.py --workload tcp_small --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 wraps the layer functions,
alternates untraced and traced rounds, and prints the per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every output was correct.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, NamedTuple

from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
LAYERS = ("params", "prob", "plan", "gf", "protocol", "net", "audit")
STRETCH_S = 0.1  # rounds run back to back at least this long between reference blocks
LONG_ROUND_S = 0.25  # a round this long gets reference work inside it
REF_SHARE = 0.2  # a reference block lasts about this share of what it follows
REF_XS = tuple(range(500))
REF_UNIT_S = 7e-5  # one unit of reference work at the reference speed

E2E_UNITS = {
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "rounds_per_s": "1/s",
    "download_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "setup.store_s": "s",
    "setup.server_ready_s": "s",
    "setup.prob_table_s": "s",
    "prob.build_prob_table_ms": "ms",
    "prob.build_calls_per_round": "count",
    "params.compute_FG_ms": "ms",
    "plan.sample_row_us": "us",
    "plan.query_support_mean": "count",
    "plan.rows_enumerated": "count",
    "gf.random_full_rank_V_us": "us",
    "gf.full_rank_yield": "ratio",
    "gf.solve_multi_ms": "ms",
    "gf.solve_multi_elems_per_s": "1/s",
    "protocol.make_query_set_ms": "ms",
    "protocol.server_answer_ms": "ms",
    "protocol.server_answer_MBps": "MB/s",
    "protocol.recover_ms": "ms",
    "protocol.recover_share": "fraction",
    "protocol.empty_answer_frac": "fraction",
    "net.endpoint_ms": "ms",
    "net.read_frame_us": "us",
    "net.connections_per_round": "count",
    "net.bytes_up_per_round": "bytes",
    "net.bytes_down_per_round": "bytes",
    "net.orchestration_ms": "ms",
    "audit.support_distribution_ms": "ms",
    "audit.rows_per_s": "1/s",
    "audit.demands_checked": "count",
    **{f"{layer}.self_ms_per_round": "ms" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
    "trace.spans_per_round": "count",
}


class Round(NamedTuple):
    start: float  # wall clock
    end: float
    cpu: float  # CPU seconds of the benchmark process and its servers
    ref_units: int  # reference work run inside the round, by AlarmBlocks
    ref_s: float  # CPU seconds of that reference work

    @property
    def busy(self) -> float:
        """The round's own time: its CPU time minus reference work inside it."""
        return self.cpu - self.ref_s


def reference_work(units: int) -> float:
    """Run `units` units of fixed interpreter work and return the CPU seconds taken.

    Its time tracks how fast the shared host runs Python at that moment.
    """
    t0 = time.thread_time()
    for _ in range(units):
        d = {x: x * 7 % 13 for x in REF_XS}
        sum(v for v in d.values() if v)
    return time.thread_time() - t0


def reference_block(busy: float) -> tuple[int, float]:
    """Reference work for REF_SHARE of `busy` seconds: (units, seconds taken)."""
    units = max(1, math.ceil(REF_SHARE * busy / REF_UNIT_S))
    return units, reference_work(units)


class AlarmBlocks:
    """Reference work inside long rounds.

    While armed, SIGALRM runs a block of reference work once a round has
    lasted LONG_ROUND_S, and every STRETCH_S after that.  The block runs in
    the main thread between two bytecodes of the round, so a long round is
    measured against the host's speed while it ran.
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[float, float, int, float]] = []  # start, end, units, CPU s
        self._running = False
        signal.signal(signal.SIGALRM, self._run)

    def _run(self, signum, frame) -> None:
        if self._running:  # a block slower than STRETCH_S: skip the tick that overlaps it
            return
        self._running = True
        try:
            t0 = time.perf_counter()
            units, cpu = reference_block(STRETCH_S)
            self._blocks.append((t0, time.perf_counter(), units, cpu))
        finally:
            self._running = False

    @contextmanager
    def armed(self) -> Iterator[None]:
        self._blocks = []
        signal.setitimer(signal.ITIMER_REAL, LONG_ROUND_S, STRETCH_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def inside(self, t0: float, t1: float) -> tuple[int, float]:
        """Units and CPU seconds of the reference work that ran between t0 and t1."""
        inner = [(u, cpu) for start, end, u, cpu in self._blocks if t0 <= start and end <= t1]
        return sum(u for u, _ in inner), sum(d for _, d in inner)


def measure(workload, seconds: float, tracer):
    """Closed loop for `seconds`: one operation in flight, never fewer than min_rounds.

    Warm-up rounds run first and are checked but not timed.  Returns the
    untraced rounds, the reference blocks between them, the traced round
    latencies, the rounds attempted and the failures.  Untraced, the timed
    rounds run back to back, and a block of reference work follows every
    STRETCH_S of rounds, as (rounds timed before it, units, seconds).  A
    round that has reference work inside it (see AlarmBlocks) is not counted
    towards a stretch.  With a tracer, odd-numbered rounds run traced and
    even ones untraced, so both samples see the same conditions, and no
    reference work runs.  Untraced rounds are timed in CPU time (see
    RoundWorkload.cpu_time), traced ones in wall-clock time.
    """
    plain: list[Round] = []
    blocks: list[tuple[int, int, float]] = []
    traced: list[float] = []
    failures: list[str] = []
    alarms = AlarmBlocks() if tracer is None else None
    attempted = 0
    start = None
    uncovered = 0.0  # time of the rounds since the last block, not counting long rounds
    while True:
        if start is None and attempted == workload.warmup_rounds:
            start = time.perf_counter()
        if start is not None:
            if tracer is None and uncovered >= STRETCH_S:
                blocks.append((len(plain), *reference_block(uncovered)))
                uncovered = 0.0
            timed = attempted - workload.warmup_rounds
            elapsed = time.perf_counter() - start
            if timed >= workload.min_rounds and elapsed * (timed + 1) / timed > seconds:
                break
        is_traced = tracer is not None and start is not None and attempted % 2 == 1
        attempted += 1
        t0, c0 = time.perf_counter(), workload.cpu_time()
        try:
            inp = workload.next_input()
            if is_traced:
                tracer.op = attempted - 1
                with tracer.installed(), tracer.span("round"):
                    workload.op(inp)
            else:
                with alarms.armed() if alarms and start is not None else nullcontext():
                    workload.op(inp)
        except Exception as exc:  # any failure ends the run; it is reported, not hidden
            traceback.print_exc()
            failures.append(f"round {attempted - 1}: {exc}")
            break
        t1, c1 = time.perf_counter(), workload.cpu_time()
        if start is None:
            continue
        if is_traced:
            traced.append(t1 - t0)
            continue
        r = Round(t0, t1, c1 - c0, *(alarms.inside(t0, t1) if alarms else (0, 0.0)))
        plain.append(r)
        if not r.ref_units:
            uncovered += r.busy
    if uncovered and not failures:
        blocks.append((len(plain), *reference_block(uncovered)))
    return plain, blocks, traced, attempted, failures


def speed_factors(rounds: list[Round], blocks: list[tuple[int, int, float]]) -> list[float]:
    """Per round, the reference speed over the host's speed while it ran.

    A round with reference work inside it uses that.  Any other round gets
    its factor from the blocks just before and just after its stretch: what
    they take at the reference speed divided by what they took.  A round's
    own time multiplied by its factor is its time at the reference speed.
    """
    factors: list[float] = []
    before: tuple[int, float] | None = None
    for end, units, secs in blocks + [(len(rounds), 0, 0.0)]:
        around = [b for b in ((units, secs), before) if b and b[0]]
        for r in rounds[len(factors) : end]:
            if r.ref_units:
                factors.append(r.ref_units * REF_UNIT_S / r.ref_s)
            else:
                factors.append(sum(u for u, _ in around) * REF_UNIT_S / sum(t for _, t in around))
        before = (units, secs)
    return factors


def percentile(xs: list[float], pct: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, plain, blocks, setup_times, child_kib) -> dict[str, float]:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = [r.busy * f for r, f in zip(plain, speed_factors(plain, blocks), strict=True)]
    return {
        "round_ms_p50": 1e3 * statistics.median(lat),
        "round_ms_p90": 1e3 * percentile(lat, 90),
        "rounds_per_s": len(lat) / sum(lat),
        "download_ratio": workload.download_ratio(),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": (self_kib + child_kib) / 1024,
    }


def per_layer(workload, tracer, setups, plain, traced) -> dict[str, float]:
    n = len(traced)
    everywhere = defaultdict(list)  # set-up spans included
    in_rounds = defaultdict(list)
    for s in tracer.spans:
        everywhere[s.name].append(s)
        if s.op is not None:
            in_rounds[s.name].append(s)
    selfs = self_times(tracer.spans)

    def mean(name: str, scale: float) -> float:
        xs = everywhere[name]
        return scale * sum(s.duration for s in xs) / len(xs) if xs else 0.0

    def per_round(name: str) -> float:
        return len(in_rounds[name]) / n

    def size_per_round(name: str) -> float:
        return sum(s.size or 0 for s in in_rounds[name]) / n

    def throughput(name: str) -> float:
        busy = sum(s.duration for s in everywhere[name])
        return sum(s.size or 0 for s in everywhere[name]) / busy if busy else 0.0

    fullrank = {s.sid for s in in_rounds["gf.random_full_rank_V"]}
    rank_tries = sum(1 for s in in_rounds["gf.matrix_rank"] if s.parent in fullrank)
    round_busy = sum(s.duration for s in in_rounds["round"])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in tracer.spans:
        layer = s.name.split(".")[0]
        if s.op is not None and layer in layer_self:
            layer_self[layer] += selfs[s.sid]
    retrieve_self = [selfs[s.sid] for s in in_rounds["net.retrieve"]]
    # Counts the workload takes from its outputs; a workload without them reads 0.
    facts = dict.fromkeys(("plan.query_support_mean", "plan.rows_enumerated",
                           "protocol.empty_answer_frac", "audit.support_distribution_ms",
                           "audit.demands_checked"), 0)
    facts.update(workload.facts())
    audit_s = mean("audit.privacy_check", 1.0)

    metrics = {
        "setup.store_s": statistics.median(p["store"] for p in setups),
        "setup.server_ready_s": statistics.median(p["server_ready"] for p in setups),
        "setup.prob_table_s": statistics.median(p["prob_table"] for p in setups),
        "prob.build_prob_table_ms": mean("prob.build_prob_table", 1e3),
        "prob.build_calls_per_round": per_round("prob.build_prob_table"),
        "params.compute_FG_ms": mean("params.compute_FG", 1e3),
        "plan.sample_row_us": mean("plan.sample_row", 1e6),
        "gf.random_full_rank_V_us": mean("gf.random_full_rank_V", 1e6),
        "gf.full_rank_yield": len(fullrank) / rank_tries if rank_tries else 0.0,
        "gf.solve_multi_ms": mean("gf.solve_multi", 1e3),
        "gf.solve_multi_elems_per_s": throughput("gf.solve_multi"),
        "protocol.make_query_set_ms": mean("protocol.make_query_set", 1e3),
        "protocol.server_answer_ms": mean("protocol.server_answer", 1e3),
        "protocol.server_answer_MBps": throughput("protocol.server_answer") / 1e6,
        "protocol.recover_ms": mean("protocol.recover", 1e3),
        "protocol.recover_share": (
            sum(s.duration for s in in_rounds["protocol.recover"]) / round_busy
        ),
        "net.endpoint_ms": mean("net.endpoint", 1e3),
        "net.read_frame_us": mean("net.read_frame", 1e6),
        "net.connections_per_round": per_round("net.connect"),
        "net.bytes_up_per_round": size_per_round("net.pack_frame"),
        "net.bytes_down_per_round": size_per_round("net.read_frame"),
        "net.orchestration_ms": (
            1e3 * sum(retrieve_self) / len(retrieve_self) if retrieve_self else 0.0
        ),
        "audit.rows_per_s": facts["plan.rows_enumerated"] / audit_s if audit_s else 0.0,
    }
    metrics.update(facts)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_round"] = 1e3 * layer_self[layer] / n
    untraced = statistics.median(r.end - r.start for r in plain)
    metrics["trace.overhead_frac"] = statistics.median(traced) / untraced - 1
    metrics["trace.spans_per_round"] = sum(len(v) for v in in_rounds.values()) / n
    return metrics


def write_spans(tracer, path: Path) -> None:
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def machine_facts() -> str:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} commit={commit} "
            "network=loopback (127.0.0.1) only")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("tcp_small", "mem_bulk", "audit_exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mpir" / "__init__.py").is_file():
        print(f"error: {SRC / 'mpir'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into SystemExit so the finally blocks below stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    # One CPU for the benchmark and its servers: a round then never waits
    # for the host to wake an idle virtual CPU, and the reference work runs
    # where the round does.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.install_targets(tracer)
        for name in tracer.missing:
            print(f"note: {name} not found; its spans are not recorded", file=sys.stderr)
    print(f"{args.workload}: {machine_facts()}")

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        setups = []
        setup_rounds = []
        setup_blocks = []  # reference work after each set-up, untraced
        try:
            # The first set-up warms up (it may compile the package's
            # bytecode) and is not counted.
            for i in range(workload.setup_repeats + 1):
                if i:
                    workload.teardown()
                with tracer.installed() if tracer else nullcontext():
                    parts = workload.setup()
                if i:
                    setups.append(parts)
                    setup_rounds.append(Round(0.0, 0.0, sum(parts.values()), 0, 0.0))
                if not tracer:
                    setup_blocks.append((len(setups), *reference_block(sum(parts.values()))))
            plain, blocks, traced, attempted, failures = measure(workload, args.seconds, tracer)
        finally:
            child_kib = workload.teardown()
        if not failures:
            failures += workload.post_checks()

    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    failed = len(failures)
    if failed:
        metrics = {}
    elif tracer:
        metrics = per_layer(workload, tracer, setups, plain, traced)
        write_spans(tracer, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        setup_times = [
            r.busy * f
            for r, f in zip(setup_rounds, speed_factors(setup_rounds, setup_blocks), strict=True)
        ]
        metrics = end_to_end(workload, plain, blocks, setup_times, child_kib)

    units = E2E_UNITS if not tracer else LAYER_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {failed / attempted:.6g} fraction ({failed} of {attempted} rounds)")
    if not tracer and args.workload == "audit_exact" and metrics:
        print(f"audit_s = {metrics['round_ms_p50'] / 1e3:.6g} s (median privacy_check call, "
              f"{len(plain)} calls)")
    if not tracer and metrics:
        factors = speed_factors(plain, blocks)
        cpu = [r.busy for r in plain]
        wall = [r.end - r.start - r.ref_s for r in plain]
        print(f"samples = {len(plain)} rounds after {workload.warmup_rounds} warm-up rounds; "
              f"unscaled CPU round_ms_p50 = {1e3 * statistics.median(cpu):.6g} ms, "
              f"p90 = {1e3 * percentile(cpu, 90):.6g} ms; "
              f"wall-clock round_ms_p50 = {1e3 * statistics.median(wall):.6g} ms, "
              f"p90 = {1e3 * percentile(wall, 90):.6g} ms")
        print(f"speed factor (reference speed / host speed) = "
              f"{statistics.median(factors):.4g} median, {min(factors):.4g}-{max(factors):.4g}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
