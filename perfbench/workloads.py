"""The benchmark's workloads and the layer functions its traced pass wraps.

Each workload is a closed loop: one client with one round (or one audit
call) in flight.  Inputs come from the workload seed: the store from
"store:<seed>", the demand sets and per-round seeds from "inputs:<seed>".
The package receives only those generated values.

Set-up parts and rounds are timed in CPU time: the CPU clock of the
benchmark process plus those of the servers it started.  On a shared host
this leaves out time in which the CPU ran something else, another tenant's
virtual CPU (steal) included.
"""
from __future__ import annotations

import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

from mpir import audit, gf, net, plan, prob, protocol
from mpir.params import Params, binomial

SRC = Path(__file__).resolve().parents[1] / "src"
FRAME_HEADER = 5  # u32 length + u8 type, as in the net module's frame layout
RATE_GUARD_SIGMAS = 4
SERVER_START_TIMEOUT = 60.0


class WrongOutput(Exception):
    """An operation finished but its result is wrong."""


def install_targets(tracer) -> None:
    """Wrap each layer function on the module its caller looks it up on."""
    w = tracer.wrap
    w(net, "retrieve", "net.retrieve")
    w(net, "build_prob_table", "prob.build_prob_table")
    w(net, "make_query_set", "protocol.make_query_set")
    w(net, "recover", "protocol.recover")
    w(net, "_query_endpoint", "net.endpoint")
    w(net, "pack_frame", "net.pack_frame", size=lambda a, r: len(r))
    w(net, "read_frame", "net.read_frame", size=lambda a, r: FRAME_HEADER + len(r[1]))
    # net calls socket.create_connection: give it a copy of the socket
    # module whose create_connection is wrapped, leaving the real one alone.
    if hasattr(net, "socket"):
        sock = types.SimpleNamespace(**vars(net.socket))
        w(sock, "create_connection", "net.connect")
        tracer.substitute(net, "socket", sock)
    w(protocol, "run_round", "protocol.run_round")
    w(protocol, "make_query_set", "protocol.make_query_set")
    w(protocol, "server_answer", "protocol.server_answer",
      size=lambda a, r: 8 * a[0].m * sum(1 for c in a[1] if c))
    w(protocol, "recover", "protocol.recover")
    w(prob, "build_prob_table", "prob.build_prob_table")
    w(prob, "compute_FG", "params.compute_FG")
    w(audit, "privacy_check", "audit.privacy_check")
    w(audit, "build_prob_table", "prob.build_prob_table")
    for fn in ("sample_row", "r_subset", "choose_T_collection", "shift_subset", "complement"):
        w(plan, fn, f"plan.{fn}")
    w(gf, "random_full_rank_V", "gf.random_full_rank_V")
    w(gf, "matrix_rank", "gf.matrix_rank")
    w(gf, "solve_multi", "gf.solve_multi", size=lambda a, r: len(r) * len(r[0]))


def cpu_clock(pid: int) -> int:
    """The clock id of a process's CPU clock, as clock_getcpuclockid(3) makes it."""
    return (~pid << 3) | 2  # CPUCLOCK_SCHED, whole process


class RoundWorkload:
    """Retrieval rounds with fresh uniform demands, each checked against the store."""

    name: str
    params: Params
    min_rounds: int  # fewest timed rounds; download_ratio is taken over the first this many
    warmup_rounds: int
    setup_repeats = 9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs = random.Random(f"inputs:{seed}")
        self.store: protocol.MessageStore | None = None
        self.table: prob.ProbTable | None = None
        self.answering: list[int] = []  # answering servers, per round
        self.support_total = 0  # nonzero query coefficients, over all rounds

    def _make_store(self) -> protocol.MessageStore:
        return protocol.MessageStore.random(self.params, random.Random(f"store:{self.seed}"))

    def next_input(self) -> tuple[tuple[int, ...], int]:
        p = self.params
        W = tuple(sorted(self.inputs.sample(range(1, p.K + 1), p.D)))
        return W, self.inputs.getrandbits(64)

    def teardown(self) -> int:
        """Release what set-up started; returns the peak RSS of its processes in KiB."""
        return 0

    def cpu_time(self) -> float:
        """CPU seconds used so far by this process and the servers it runs."""
        return time.process_time()

    def round(self, W: tuple[int, ...], seed: int) -> protocol.Transcript:
        raise NotImplementedError

    def op(self, inp: tuple[tuple[int, ...], int]) -> None:
        W, seed = inp
        t = self.round(W, seed)
        if t.recovered != tuple(self.store.messages[x - 1] for x in W):
            raise WrongOutput(f"W={W} seed={seed}: recovered messages differ from the store")
        answering = 0
        for query, answer in zip(t.query_set.queries, t.answers, strict=True):
            support = sum(1 for c in query if c)
            if (answer is None) != (support == 0):
                raise WrongOutput(f"W={W} seed={seed}: answer presence does not match its query")
            answering += answer is not None
            self.support_total += support
        if t.download_elements != answering * self.params.m:
            raise WrongOutput(f"W={W} seed={seed}: download count != answering servers * m")
        self.answering.append(answering)

    def post_checks(self) -> list[str]:
        """Rate guard: mean answering servers against the exact expectation."""
        n = len(self.answering)
        expected = prob.expected_download_factor(self.params, self.table)
        silent_p = self.params.N - expected
        std_error = math.sqrt(float(silent_p * (1 - silent_p)) / n)
        mean = Fraction(sum(self.answering), n)
        if abs(float(mean - expected)) > RATE_GUARD_SIGMAS * std_error:
            return [f"rate guard: mean answering servers {float(mean):.4f} over {n} rounds, "
                    f"expected {float(expected):.4f} +- {RATE_GUARD_SIGMAS} * {std_error:.4f}"]
        return []

    def download_ratio(self) -> float:
        # Over a fixed prefix of rounds, so the value is exact for a seed.
        prefix = self.answering[: self.min_rounds]
        return sum(prefix) / (self.params.D * len(prefix))

    def facts(self) -> dict[str, float]:
        queries = self.params.N * len(self.answering)
        return {
            "plan.query_support_mean": self.support_total / queries,
            "protocol.empty_answer_frac": 1 - sum(self.answering) / queries,
        }


class TcpSmall(RoundWorkload):
    name = "tcp_small"
    params = Params(K=9, D=2, m=16)
    min_rounds = 1000
    warmup_rounds = 200
    replay_rounds = 5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.store_path = workdir / "store.bin"
        self.servers: list[subprocess.Popen] = []
        self.server_clocks: list[int] = []
        self.endpoints: list[tuple[str, int]] = []
        self.replays: list[tuple[tuple[int, ...], int, bytes]] = []

    def setup(self) -> dict[str, float]:
        t0 = self.cpu_time()
        self.store = self._make_store()
        net.write_store(self.store_path, self.store)
        t1 = self.cpu_time()
        for _ in range(self.params.N):
            proc = _spawn_server(self.store_path)
            self.servers.append(proc)
            self.server_clocks.append(cpu_clock(proc.pid))
        self.endpoints = [_await_banner(proc) for proc in self.servers]
        t2 = self.cpu_time()  # now with each server's CPU time since its fork
        self.table = prob.build_prob_table(self.params)
        t3 = self.cpu_time()
        return {"store": t1 - t0, "server_ready": t2 - t1, "prob_table": t3 - t2}

    def teardown(self) -> int:
        kib = 0
        self.server_clocks.clear()
        while self.servers:
            kib += _reap(self.servers.pop())
        return kib

    def cpu_time(self) -> float:
        return time.process_time() + sum(time.clock_gettime(c) for c in self.server_clocks)

    def round(self, W, seed):
        t = net.retrieve(self.endpoints, W, self.params, seed).transcript
        if len(self.replays) < self.replay_rounds:
            self.replays.append((W, seed, t.to_bytes()))
        return t

    def post_checks(self) -> list[str]:
        failures = super().post_checks()
        for W, seed, wire in self.replays:
            local = protocol.run_round(self.params, self.table, W, self.store, random.Random(seed))
            if local.to_bytes() != wire:
                failures.append(f"W={W} seed={seed}: TCP transcript differs from the in-memory round")
        return failures


class MemBulk(RoundWorkload):
    name = "mem_bulk"
    params = Params(K=20, D=6, m=4096)
    min_rounds = 200
    warmup_rounds = 10

    def setup(self) -> dict[str, float]:
        t0 = self.cpu_time()
        self.store = self._make_store()
        t1 = self.cpu_time()
        self.table = prob.build_prob_table(self.params)
        t2 = self.cpu_time()
        return {"store": t1 - t0, "server_ready": 0.0, "prob_table": t2 - t1}

    def round(self, W, seed):
        return protocol.run_round(self.params, self.table, W, self.store, random.Random(seed))


class AuditExact:
    """The exhaustive exact privacy audit; it has no random inputs."""

    name = "audit_exact"
    params = Params(K=9, D=4)
    min_rounds = 4
    warmup_rounds = 0
    setup_repeats = 51
    probe_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        self.table: prob.ProbTable | None = None
        self.demands = binomial(self.params.K, self.params.D)
        self.demands_checked = 0

    def setup(self) -> dict[str, float]:
        t0 = self.cpu_time()
        self.table = prob.build_prob_table(self.params)
        t1 = self.cpu_time()
        return {"store": 0.0, "server_ready": 0.0, "prob_table": t1 - t0}

    def teardown(self) -> int:
        return 0

    def cpu_time(self) -> float:
        return time.process_time()

    def next_input(self) -> None:
        return None

    def op(self, inp: None) -> None:
        rep = audit.privacy_check(self.params)
        if not (rep.passed and rep.max_tv_distance == 0 and rep.demands_checked == self.demands):
            raise WrongOutput(
                f"privacy_check: passed={rep.passed} max_tv={rep.max_tv_distance} "
                f"demands_checked={rep.demands_checked} (expected {self.demands})"
            )
        self.demands_checked = rep.demands_checked

    def post_checks(self) -> list[str]:
        return []

    def download_ratio(self) -> float:
        # No round runs here: the exact expectation for the audited instance.
        return float(prob.expected_download_factor(self.params, self.table) / self.params.D)

    def facts(self) -> dict[str, float]:
        """Work counts, plus a probe of the public per-demand entry point
        (one demand, one server position), which privacy_check does not call."""
        W = tuple(range(1, self.params.D + 1))
        times = []
        for _ in range(self.probe_repeats):
            t0 = time.perf_counter()
            audit.support_distribution(self.params, self.table, W, 1)
            times.append(time.perf_counter() - t0)
        return {
            "plan.rows_enumerated": self.demands * plan.total_rows(self.params),
            "audit.demands_checked": self.demands_checked,
            "audit.support_distribution_ms": 1e3 * statistics.median(times),
        }


WORKLOADS = {w.name: w for w in (TcpSmall, MemBulk, AuditExact)}


def _spawn_server(store_path: Path) -> subprocess.Popen:
    # The package is run from source: src/ goes on the server's path.
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return subprocess.Popen(
        [sys.executable, "-m", "mpir.cli", "serve", "--store", str(store_path), "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        cwd=SRC.parent,
    )


def _await_banner(proc: subprocess.Popen) -> tuple[str, int]:
    """Wait for "serving <store> on host:port" and return the endpoint."""
    ready, _, _ = select.select([proc.stdout], [], [], SERVER_START_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    host, _, port = line.strip().rpartition(" on ")[2].rpartition(":")
    if not port.isdigit():
        raise RuntimeError(f"server did not report its endpoint (got {line!r})")
    return host, int(port)


def _reap(proc: subprocess.Popen, timeout: float = 10.0) -> int:
    """Terminate a server, wait for it, and return its peak RSS in KiB.

    The signals go through os.kill, not Popen, whose poll() would reap a
    server that already died and lose its resource usage.
    """
    os.kill(proc.pid, signal.SIGTERM)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return usage.ru_maxrss
