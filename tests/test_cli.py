"""Tests for the command-line interface."""
from __future__ import annotations

import hashlib
import os
import random
import signal
import struct
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

import mpir
from mpir import cli, gf, net
from mpir.params import Params
from mpir.protocol import MessageStore


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@contextmanager
def serving(store):
    """Three answer servers on one store; yields their --endpoints value."""
    servers = [net.StoreServer(store) for _ in range(3)]
    for s in servers:
        threading.Thread(target=s.serve_forever, args=(0.05,), daemon=True).start()
    try:
        yield ",".join(f"127.0.0.1:{s.port}" for s in servers)
    finally:
        for s in servers:
            s.shutdown()
            s.server_close()


class TestParamsCommand:
    def test_k5_d2_rate(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--K", "5", "--D", "2")
        assert code == 0
        assert "rate R = 57/80" in out

    def test_k4_d2_prob_rows(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--K", "4", "--D", "2")
        assert code == 0
        assert "i=0: (1/4, 1/12)" in out
        assert "i=1: (1/6, 1/12)" in out
        assert "i=2: (1/6, 0)" in out

    def test_k3_d2_gap(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--K", "3", "--D", "2")
        assert code == 0
        assert "rate R = 5/6" in out
        assert "capacity upper bound = 6/7" in out
        assert "gap = 1/42" in out

    def test_usage_error_is_returned(self, capsys):
        code, out, err = run_cli(capsys, "params")
        assert code == 2
        assert out == ""
        assert "the following arguments are required: --K, --D" in err

    def test_invalid_inputs(self, capsys):
        assert run_cli(capsys, "params", "--K", "1", "--D", "2")[0] == 2
        assert run_cli(capsys, "params", "--K", "4", "--D", "2", "--q", "4")[0] == 2
        assert run_cli(capsys, "params", "--K", "4", "--D", "3", "--q", "3")[0] == 2


class TestRateTable:
    def test_d2_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "rate-table", "--D", "2", "--k-min", "3", "--k-max", "9")
        assert code == 0
        for value in ("5/6", "3/4", "57/80", "9/13", "639/938", "27/40", "795/1184"):
            assert value in out

    def test_d3_k6_gap_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate-table", "--D", "3", "--k-min", "6", "--k-max", "6", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[3] == "0"

    def test_d4_k7_gap(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate-table", "--D", "4", "--k-min", "7", "--k-max", "7", "--format", "csv"
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[1] == "132/155"
        assert row[3] == "64/3565"

    def test_csv_parses(self, capsys):
        import csv as csv_mod
        import io

        code, out, _ = run_cli(
            capsys, "rate-table", "--D", "2", "--k-min", "3", "--k-max", "5", "--format", "csv"
        )
        rows = list(csv_mod.reader(io.StringIO(out)))
        assert rows[0][0] == "K"
        assert [r[0] for r in rows[1:]] == ["3", "4", "5"]

    def test_stable_output(self, capsys):
        a = run_cli(capsys, "rate-table", "--D", "3", "--k-min", "4", "--k-max", "10")
        b = run_cli(capsys, "rate-table", "--D", "3", "--k-min", "4", "--k-max", "10")
        assert a == b


# Exit code and SHA-256 of the full stdout of `mpir params`, `mpir
# rate-table`, `mpir simulate` and `mpir audit`: each privacy audit passing
# and failing, with and without the permutation.  Their output is exact and
# must not change: a change that moves an entry here changes behaviour.
PINNED_OUTPUT = {
    ("params", "--K", "5", "--D", "2"):
        (0, "562d39658f89625a5cc972a77707653631b0e054e02180ee79b670176338c4bc"),
    ("params", "--K", "7", "--D", "3"):
        (0, "7be924cc968cb4727857feb912761d4d403161be1970f86f87acdf7d1d650b33"),
    ("params", "--K", "12", "--D", "5", "--q", "11", "--m", "4"):
        (0, "ec8b23beb0ea3eec509c1649a72504f7904c8125a1d17bb81d8b0c688d7e518d"),
    # M's sub-diagonal is 1/2, 2/3, 3/2, 2, 1/6 at D=6, and not all 1 at D=8.
    ("params", "--K", "20", "--D", "6"):
        (0, "c28f4c33d3256811563abdcda972e1347ec576e06aaee96cc6130b18b493c9ca"),
    ("params", "--K", "16", "--D", "8"):
        (0, "42ff87ab67882ae5fdee41ab1976b46365a2e870f4629b0018ef0398b234150e"),
    ("rate-table", "--D", "2", "--k-min", "2", "--k-max", "12", "--format", "markdown"):
        (0, "f1d42bff176e304e0b4808a84d2f5ba2a3a28ddf3a2acb439e247f0a34c75cdd"),
    ("rate-table", "--D", "2", "--k-min", "2", "--k-max", "12", "--format", "csv"):
        (0, "df2035da2aeaba0c4eaf0be218605968363c376ccfd44211cc1ef26a104117c2"),
    ("rate-table", "--D", "3", "--k-min", "3", "--k-max", "12", "--format", "markdown"):
        (0, "cab6d57dd7b1b9cc79b74a34470ee9d37415a90923aa043eca5107e50d383f0f"),
    ("rate-table", "--D", "3", "--k-min", "3", "--k-max", "12", "--format", "csv"):
        (0, "58871bbc3b370e3fdd909c680366d71f7f04ee051fa15c8b74c256f042356e8c"),
    ("rate-table", "--D", "4", "--k-min", "4", "--k-max", "12", "--format", "markdown"):
        (0, "42686f817b3f901270000ea36b4408794861b67257216d6e042324c829dca1d3"),
    ("rate-table", "--D", "4", "--k-min", "4", "--k-max", "12", "--format", "csv"):
        (0, "315725a90bd091539ac86ce2d434f1b6116e331dad77f5f7e9b8a5ead5402fde"),
    ("audit", "privacy", "--K", "9", "--D", "4"):
        (0, "4bb20ccf896165abe980bbb1a4445678277ed687e7022f5ae8939ae9f9ae4782"),
    ("audit", "privacy", "--K", "9", "--D", "3", "--mutate", "0", "1"):
        (1, "b513330afdb5242944166b1fed7f99f02e197f829bde24a85691a4326c9fcf69"),
    ("audit", "privacy", "--K", "7", "--D", "3", "--no-permute"):
        (1, "54f79971a32918d7ea71528ec56cb69b31e19132c74a2c1292172069f84ecc95"),
    ("audit", "privacy", "--K", "8", "--D", "4", "--mutate", "1", "2", "--no-permute"):
        (1, "adddedb6c30cbf1c6e7cebc3922fa6e3f152c2d4e6fbf69658fb8c00e71443c0"),
    ("audit", "privacy", "--K", "4", "--D", "2", "--coefficient-level"):
        (0, "bbf4cfc09ef2dace9e758e0a6c694a74b14a0beec64d48d67d9aaca62cef3de1"),
    ("audit", "privacy", "--K", "4", "--D", "2", "--coefficient-level", "--mutate", "0", "1"):
        (1, "d2dce525064cd3450e239f27482a368b89eb659a210605fee3ecd045309f0aa4"),
    ("audit", "evenness", "--D", "7"):
        (0, "11751c327daabb7a3ec1c38ecb233e51fc1fb0235c7d83b3bc30ead3047c4995"),
    ("simulate", "--K", "9", "--D", "2", "--rounds", "300", "--seed", "7"):
        (0, "3ab3f0a50ef7fdcd886a6f28f7b211a8b550936a5969abb694e1892746eacba2"),
    ("audit", "recoverability", "--K", "6", "--D", "3", "--trials", "50", "--seed", "3"):
        (0, "c9f4d26362b66aba635130fc893e16e1c70e79bab2f7cb011ef2cb4caafd4000"),
}


@pytest.mark.parametrize("argv", PINNED_OUTPUT, ids=" ".join)
def test_pinned_output(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_OUTPUT[argv]


class TestSimulate:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--K", "4", "--D", "2", "--rounds", "300", "--seed", "7"
        )
        assert code == 0
        assert "success rate = 1" in out

    def test_reproducible(self, capsys):
        argv = ("simulate", "--K", "5", "--D", "2", "--rounds", "200", "--seed", "3")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


class TestAudit:
    def test_privacy_pass(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "privacy", "--K", "5", "--D", "2")
        assert code == 0
        assert "PASS" in out
        assert "max TV distance = 0" in out

    def test_privacy_mutated_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "privacy", "--K", "4", "--D", "2", "--mutate", "0", "1"
        )
        assert code == 1
        assert "FAIL" in out

    def test_privacy_no_permute_fails(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "privacy", "--K", "4", "--D", "2", "--no-permute")
        assert code == 1

    @pytest.mark.parametrize("mutate", [("0", "0"), ("-1", "1"), ("9", "1"), ("0", "3")])
    def test_privacy_mutate_outside_the_table_is_usage_error(self, capsys, mutate):
        code, out, err = run_cli(capsys, "audit", "privacy", "--K", "4", "--D", "2",
                                 "--mutate", *mutate)
        assert code == 2
        assert "no entry" in err
        assert "--mutate" in err
        assert out == ""

    def test_coefficient_level_no_permute_is_usage_error(self, capsys):
        # The replay audits the shipped client, which always permutes: a PASS
        # here would answer a question the user did not ask.
        code, out, err = run_cli(capsys, "audit", "privacy", "--K", "4", "--D", "2",
                                 "--coefficient-level", "--no-permute")
        assert code == 2
        assert "--no-permute" in err
        assert out == ""

    def test_privacy_coefficient_level(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "privacy", "--K", "4", "--D", "2", "--coefficient-level"
        )
        assert code == 0
        assert "max TV distance = 0" in out

    def test_evenness(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "evenness", "--D", "4")
        assert code == 0
        assert "PASS" in out

    def test_evenness_reports_findings(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "evenness", "--D", "7")
        assert code == 0
        assert "uneven" in out

    def test_recoverability(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit", "recoverability",
            "--K", "4", "--D", "2", "--trials", "400", "--seed", "11",
        )
        assert code == 0
        assert "400/400" in out

    def test_recoverability_reads_q_and_m(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "recoverability", "--K", "4", "--D", "2",
                               "--q", "5", "--m", "3", "--trials", "50")
        assert code == 0
        assert "recoverability K=4 D=2 q=5 m=3: 50/50 rounds recovered" in out

    # Each check's own options, and each option it does not read.  "--m" for
    # privacy is given two values: were abbreviations allowed there, it would
    # be read as "--mutate 0 1" and audit a perturbed table.
    AUDIT_ARGS = {
        "privacy": ("--K", "5", "--D", "2"),
        "evenness": ("--D", "4"),
        "recoverability": ("--K", "5", "--D", "2", "--trials", "50"),
    }
    UNREAD = [
        ("evenness", "--K", "5"), ("evenness", "--q", "5"), ("evenness", "--m", "8"),
        ("evenness", "--trials", "10"), ("evenness", "--seed", "1"),
        ("evenness", "--mutate", "0", "1"), ("evenness", "--no-permute"),
        ("evenness", "--coefficient-level"),
        ("privacy", "--m", "0", "1"), ("privacy", "--trials", "10"), ("privacy", "--seed", "1"),
        ("recoverability", "--mutate", "0", "1"), ("recoverability", "--no-permute"),
        ("recoverability", "--coefficient-level"),
    ]

    @pytest.mark.parametrize("check,option", [(c, o) for c, *o in UNREAD],
                             ids=[" ".join(u[:2]) for u in UNREAD])
    def test_unread_option_is_usage_error(self, capsys, check, option):
        code, out, err = run_cli(capsys, "audit", check, *self.AUDIT_ARGS[check], *option)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in err

    def test_missing_k_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "audit", "privacy", "--D", "2")
        assert code == 2
        assert "--K" in err


class TestOutOfRangeValues:
    """A value outside its option's range is one error line naming the
    option, and exit 2."""

    @pytest.mark.parametrize("argv,message", [
        (("simulate", "--K", "5", "--D", "2", "--rounds", "0"), "--rounds must be >= 1, got 0"),
        (("audit", "recoverability", "--K", "5", "--D", "2", "--trials", "0"),
         "--trials must be >= 1, got 0"),
        (("audit", "evenness", "--D", "0"), "D must be an integer > 1, got 0"),
        (("audit", "evenness", "--D", "1"), "D must be an integer > 1, got 1"),
        (("rate-table", "--D", "2", "--k-min", "5", "--k-max", "3"), "--k-min 5 exceeds --k-max 3"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    def test_refused_with_exit_2(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


class TestUnevenInstances:
    """D=10 has no even collection for sub-blocks 4 and 6.  The analysis
    still prints its tables; a run that needs such a sub-block is refused
    with one error line and exit 2, which an audit's FAIL (1) never is."""

    @pytest.mark.parametrize("argv", [
        ("audit", "evenness", "--D", "10"),
        ("audit", "privacy", "--K", "11", "--D", "10"),
        ("simulate", "--K", "15", "--D", "10", "--rounds", "100"),
    ], ids=" ".join)
    def test_refused_with_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == ("error: no even collection exists for D=10, j=4: an orbit with "
                       "stabilizer 2 cannot meet multiplicity 1\n")
        assert "FAIL" not in out

    def test_params_still_printed(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--K", "15", "--D", "10")
        assert code == 0
        assert "rate R = " in out


class TestStoreAndNetwork:
    def test_store_init(self, capsys, tmp_path):
        path = tmp_path / "store.bin"
        code, out, _ = run_cli(
            capsys,
            "store", "init",
            "--out", str(path),
            "--K", "4", "--D", "2", "--m", "8", "--seed", "1",
        )
        assert code == 0
        store = net.read_store(path)
        assert (store.K, store.q, store.m) == (4, 3, 8)
        # Same seed must write the identical file.
        path2 = tmp_path / "store2.bin"
        run_cli(
            capsys,
            "store", "init",
            "--out", str(path2),
            "--K", "4", "--D", "2", "--m", "8", "--seed", "1",
        )
        assert path.read_bytes() == path2.read_bytes()

    def test_store_init_refuses_an_unframeable_m_before_drawing(self, capsys, tmp_path,
                                                                monkeypatch):
        # An answer of m = 2**32 one-byte elements overflows a frame's u32
        # length: refused before any element is drawn, and no file is written.
        def no_draws(*args):
            raise AssertionError("store init drew elements")

        monkeypatch.setattr(gf, "random_elements", no_draws)
        path = tmp_path / "store.bin"
        code, out, err = run_cli(capsys, "store", "init", "--out", str(path),
                                 "--K", "4", "--D", "2", "--m", str(2**32))
        assert code == 2
        assert err.startswith("error: ") and "not an instance" in err
        assert not path.exists()

    def test_retrieve_end_to_end(self, capsys):
        params = Params(K=4, D=2, q=3, m=8)
        store = MessageStore.random(params, random.Random(44))
        with serving(store) as endpoints:
            code, out, _ = run_cli(
                capsys,
                "retrieve",
                "--endpoints", endpoints,
                "--W", "1,2",
                "--K", "4", "--D", "2", "--m", "8",
                "--seed", "5",
            )
        assert code == 0
        assert f"X_1 = {list(gf.decode(store.messages[0], 3))}" in out
        assert "downloaded bytes" in out

    # SHA-256 of the full stdout of seeded `mpir retrieve` rounds against a
    # store drawn from random.Random(44), at the default q (3, no --q) and
    # at q = 65521, whose elements take two bytes.  Seed 1 at q = 3 and
    # seed 2 at q = 65521 have a silent server.  How elements are held in
    # memory must not move what the command prints.  "downloaded bytes"
    # counts w-byte answer elements (wire format 2).
    PINNED_RETRIEVE = {
        (None, "1,2", 1): "0193dd4f9d0123799f58485ffea35f32de14f10fe98c7c277677e1b158752838",
        (None, "2,4", 5): "791533e21098fffb466adc303278505afc2d03cfaeb8fb616121725733f50a0b",
        (65521, "1,3", 2): "7bff9dc4d8fb7cab93add84f12daf44a3637b66cdf6170271d7ed0f8de1c6442",
        (65521, "3,4", 7): "0ed1ac86f150a816dd9916621abb0db14d8c6d59eb95dda92580933beff479a9",
    }

    @pytest.mark.parametrize("q,W,seed", PINNED_RETRIEVE, ids=str)
    def test_retrieve_pinned_output(self, capsys, q, W, seed):
        params = Params(K=4, D=2, q=q, m=6)
        q_args = () if q is None else ("--q", str(q))
        with serving(MessageStore.random(params, random.Random(44))) as endpoints:
            code, out, _ = run_cli(
                capsys,
                "retrieve", "--endpoints", endpoints, "--W", W,
                "--K", "4", "--D", "2", *q_args, "--m", "6", "--seed", str(seed),
            )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_RETRIEVE[q, W, seed]

    def test_serve_rejects_version_1_store(self, capsys, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(b"MPIR1" + struct.pack("<QII", 3, 4, 8) + bytes(8 * 4 * 8))
        code, out, err = run_cli(capsys, "serve", "--store", str(path), "--port", "0")
        assert code == 2
        assert "format version 1" in err
        assert "re-run `mpir store init`" in err
        assert out == ""

    def test_serve_port_outside_range(self, capsys, tmp_path):
        path = tmp_path / "store.bin"
        net.write_store(path, MessageStore.random(Params(K=4, D=2, m=8), random.Random(1)))
        code, out, err = run_cli(capsys, "serve", "--store", str(path), "--port", "99999")
        assert (code, out, err) == (2, "", "error: port 99999 outside 0..65535\n")

    @pytest.mark.parametrize("endpoints,W,message", [
        ("localhost,localhost:2,localhost:3", "1,2", "--endpoints: 'localhost' is not host:port"),
        ("127.0.0.1:,127.0.0.1:2,127.0.0.1:3", "1,2", "--endpoints: '127.0.0.1:' is not host:port"),
        ("127.0.0.1:1,127.0.0.1:2,127.0.0.1:3", "1,x", "--W: 'x' is not a demand index"),
        ("127.0.0.1:99999,127.0.0.1:2,127.0.0.1:3", "1,2",
         "endpoint ('127.0.0.1', 99999): port outside 1..65535"),
    ], ids=["no port", "empty port", "W not an integer", "port 99999"])
    def test_retrieve_refusal_names_the_item(self, capsys, endpoints, W, message):
        code, out, err = run_cli(capsys, "retrieve", "--endpoints", endpoints, "--W", W,
                                 "--K", "4", "--D", "2")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_serve_stops_on_ctrl_c_without_a_traceback(self, tmp_path):
        path = tmp_path / "store.bin"
        net.write_store(path, MessageStore.random(Params(K=4, D=2, m=8), random.Random(1)))
        paths = [str(Path(mpir.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        argv = [sys.executable, "-m", "mpir.cli", "serve", "--store", str(path), "--port", "0"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env) as proc:
            try:
                assert proc.stdout.readline().startswith("serving ")
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=30)
            finally:
                proc.kill()
        assert proc.returncode == 130
        assert "Traceback" not in err

    def test_retrieve_reads_bracketed_ipv6(self, capsys):
        # Two endpoints name one server: refused before any connection, so
        # no listener is needed, and the hosts are read without brackets.
        code, out, err = run_cli(capsys, "retrieve", "--endpoints", "[::1]:9,[::1]:9,[::1]:10",
                                 "--W", "1,2", "--K", "4", "--D", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: endpoints ('::1', 9) and ('::1', 9) are the same server")

    def test_retrieve_bad_endpoints(self, capsys):
        code, _, err = run_cli(
            capsys,
            "retrieve",
            "--endpoints", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3",
            "--W", "1,2",
            "--K", "4", "--D", "2",
            "--seed", "0",
        )
        assert code == 2
        assert "error" in err
