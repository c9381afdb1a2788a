import hashlib
import json
import random
import shlex
from pathlib import Path

import pytest

from recipe.cli import _build_parser, main
from recipe.decoder import replay_xor_mask
from recipe.evaluation import CSV_HEADER, RecipeDScheme
from recipe.feasibility import derive_apa, read_apa
from recipe.protocol import read_avst
from recipe.xdd import read_sequence, sequence_from_masses, write_sequence


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dist_shifted_soliton_stdout(capsys):
    code, out, _ = run_cli(capsys, "dist", "shifted-soliton", "--K", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == 3
    assert doc["mu"][2] == pytest.approx([0.5, 1 / 6, 1 / 3], abs=1e-15)


def test_dist_writes_file_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "ss.json"
    code, _, _ = run_cli(capsys, "dist", "shifted-soliton", "--K", "4", "-o", str(out_path))
    assert code == 0
    assert out_path.exists()
    manifest = json.loads((tmp_path / "ss.json.manifest.json").read_text())
    assert manifest["version"]
    assert "dist" in " ".join(manifest["command"])


def test_check_feasible_and_infeasible(tmp_path, capsys):
    ss = tmp_path / "ss.json"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "4", "-o", str(ss))
    code, out, _ = run_cli(capsys, "check", str(ss))
    assert code == 0 and "feasible" in out

    ideal = tmp_path / "ideal.json"
    run_cli(capsys, "dist", "ideal-soliton", "--K", "3", "-o", str(ideal))
    code, out, _ = run_cli(capsys, "check", str(ideal))
    assert code == 2
    assert "i=3 d=1" in out


# Each `dist` code's own flags; every other one is a usage error.
_DIST_FLAGS = {"--K": "3", "--alpha": "0.9", "--p": "0.2", "--c": "5", "--delta": "0.4",
               "--from": "mu.json"}
_DIST_READS = {"shifted-soliton": {"--K"}, "ideal-soliton": {"--K"},
               "pint": {"--K", "--alpha", "--p"}, "robust-soliton": {"--K", "--c", "--delta"},
               "invariant": {"--from"}}


@pytest.mark.parametrize("kind, flag", [
    (kind, flag) for kind, reads in _DIST_READS.items() for flag in _DIST_FLAGS
    if flag not in reads])
def test_dist_code_refuses_flags_it_does_not_read(capsys, kind, flag):
    required = ["--from", "mu.json"] if kind == "invariant" else []
    code, out, err = run_cli(capsys, "dist", kind, *required, flag, _DIST_FLAGS[flag])
    assert code == 1
    assert out == "" and "unrecognized arguments" in err
    assert err.startswith(f"usage: recipe dist {kind} ")  # the code's own flags


def test_dist_invariant_without_from_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "dist", "invariant")
    assert code == 1
    assert out == "" and "--from" in err


@pytest.mark.parametrize("c", ["-1", "nan", "inf"])
def test_dist_robust_soliton_refuses_a_shape_not_positive_and_finite(capsys, c):
    code, out, err = run_cli(capsys, "dist", "robust-soliton", "--K", "3", "--c", c)
    assert code == 3
    assert out == "" and err.splitlines() == [
        f"error: shape parameter must be positive and finite, got c={float(c)}"]


# SHA-256 of stdout, recorded before `dist` had one sub-command per code.
@pytest.mark.parametrize("argv, digest", [
    (["pint", "--K", "6", "--alpha", "0.3", "--p", "0.2"],
     "497dd39c85f589c56348d63a0e3de777700696ebaf7c0a057271df6d10a2cf4d"),
    (["ideal-soliton", "--K", "5"],
     "06953766c24629fc829ea0f6eb01baf07881261ede28d6453621eb24c458033e"),
], ids=["pint", "ideal-soliton"])
def test_dist_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "dist", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_derive_apa_roundtrip(tmp_path, capsys):
    ss = tmp_path / "ss.json"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "3", "-o", str(ss))
    apa_path = tmp_path / "apa.json"
    code, _, _ = run_cli(capsys, "derive-apa", str(ss), "-o", str(apa_path))
    assert code == 0
    apa = read_apa(apa_path)
    assert apa.entry(3, 1) == pytest.approx((2 / 9, 2 / 3, 1 / 9), abs=1e-15)


def test_derive_apa_infeasible_exit_2(tmp_path, capsys):
    ideal = tmp_path / "ideal.json"
    run_cli(capsys, "dist", "ideal-soliton", "--K", "3", "-o", str(ideal))
    code, out, _ = run_cli(capsys, "derive-apa", str(ideal), "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "infeasible" in out


def test_infeasible_verdict_prints_one_way(tmp_path, capsys):
    ideal = tmp_path / "ideal.json"
    run_cli(capsys, "dist", "ideal-soliton", "--K", "6", "-o", str(ideal))
    code, checked, _ = run_cli(capsys, "check", str(ideal))
    assert code == 2
    code, derived, _ = run_cli(capsys, "derive-apa", str(ideal), "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert derived == checked
    lines = checked.splitlines()
    assert lines[0] == f"infeasible: {len(lines) - 1} violated constraint(s)"
    assert len(lines) > 2 and all(" < q_i(d)+q_i(d+1)=" in line for line in lines[1:])


def test_check_and_derive_apa_agree_past_a_facet(tmp_path, capsys):
    # Slack -5e-13 at (i=3, d=2): within the check's tolerance, and p_R
    # there computes to -5e-8 before the facet renormalization.
    c = 3 * (1e-5 + 5e-13)
    seq = tmp_path / "seq.json"
    write_sequence(sequence_from_masses([[1.0], [1 - 1e-5, 1e-5], [1 - c, c, 0.0]]), seq)
    assert run_cli(capsys, "check", str(seq))[0] == 0
    code, _, err = run_cli(capsys, "derive-apa", str(seq), "-o", str(tmp_path / "apa.json"))
    assert (code, err) == (0, "")
    assert read_apa(tmp_path / "apa.json").entry(3, 2)[2] == 0.0


def test_gen_avst(tmp_path, capsys):
    ss = tmp_path / "ss.json"
    apa = tmp_path / "apa.json"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "3", "-o", str(ss))
    run_cli(capsys, "derive-apa", str(ss), "-o", str(apa))
    table = tmp_path / "t.avst"
    code, _, _ = run_cli(capsys, "gen-avst", "--apa", str(apa), "--L", "100",
                         "--seed", "3", "-o", str(table))
    assert code == 0
    avst = read_avst(table)
    assert avst.L == 100 and avst.K == 3
    assert avst.apa_digest == read_apa(apa).digest()


@pytest.mark.parametrize("L", ["0", "-1"])
def test_gen_avst_refuses_a_table_without_rows(tmp_path, capsys, L):
    ss, apa, table = tmp_path / "ss.json", tmp_path / "apa.json", tmp_path / "t.avst"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "3", "-o", str(ss))
    run_cli(capsys, "derive-apa", str(ss), "-o", str(apa))
    code, out, err = run_cli(capsys, "gen-avst", "--apa", str(apa), "--L", L, "-o", str(table))
    assert code == 3 and not table.exists()
    assert out == "" and err.splitlines() == [
        f"error: table needs at least one row and one hop, got L={L}, K=3"]


def test_evaluate_byte_identical_reruns(tmp_path, capsys):
    ss = tmp_path / "ss.json"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "4", "-o", str(ss))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run_cli(capsys, "evaluate", "--seq", str(ss), "--K", "4",
                             "--trials", "300", "--seed", "1", "-o", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "scheme,K,k,trials,mean,stderr,q99,incomplete_rate"
    assert len(lines) == 5


def test_evaluate_pint_and_ks(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--pint-alpha", "1.0", "--pint-p", "0.5",
                           "--K", "3", "--trials", "200", "--seed", "2",
                           "--ks", "1,3", "--label", "reservoir")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[1].startswith("reservoir,3,1,200,1,")
    assert len(rows) == 3


def test_evaluate_requires_exactly_one_scheme(tmp_path, capsys):
    # Every artifact flag given is read: a second one would go unread.
    ss, apa = tmp_path / "ss.json", tmp_path / "apa.json"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "3", "-o", str(ss))
    run_cli(capsys, "derive-apa", str(ss), "-o", str(apa))
    for flags in ([], ["--seq", str(ss), "--apa", str(apa)],
                  ["--apa", str(apa), "--pint-p", "0.2"], ["--pint-p", "0.2"],
                  ["--pint-alpha", "0.5"]):
        code, out, err = run_cli(capsys, "evaluate", *flags, "--K", "3", "--trials", "2")
        assert code == 3, flags
        assert out == "" and "exactly one" in err


def test_evaluate_negative_path_length_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "evaluate", "--pint-alpha", ".5", "--pint-p", ".2",
                             "--K", "3", "--ks=-1", "--trials", "2")
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1 and "k=-1" in err


@pytest.mark.parametrize("ks", ["1,,2", "abc", "1.5"])
def test_evaluate_ks_not_integers_is_a_usage_error(capsys, ks):
    code, out, err = run_cli(capsys, "evaluate", "--pint-alpha", ".5", "--pint-p", ".2",
                             "--K", "3", "--ks", ks, "--trials", "2")
    assert code == 1
    assert out == "" and "Traceback" not in err and "argument --ks" in err


def test_evaluate_diameter_out_of_range_is_one_error_line(tmp_path, capsys):
    ss, apa, table = tmp_path / "ss.json", tmp_path / "apa.json", tmp_path / "t.avst"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "5", "-o", str(ss))
    run_cli(capsys, "derive-apa", str(ss), "-o", str(apa))
    run_cli(capsys, "gen-avst", "--apa", str(apa), "--L", "50", "-o", str(table))
    out_path = tmp_path / "curve.csv"
    for flags, Ks in ((["--seq", str(ss)], (0, -1, 7)), (["--apa", str(apa)], (0, -1, 7)),
                      (["--avst", str(table)], (0, -1, 7)),
                      (["--pint-alpha", ".5", "--pint-p", ".2"], (0, -1))):
        for K in Ks:
            code, out, err = run_cli(capsys, "evaluate", *flags, f"--K={K}", "--trials", "2",
                                     "-o", str(out_path))
            assert code == 3, (flags, K)
            assert out == "" and len(err.splitlines()) == 1
            assert not out_path.exists()


@pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "  x ", " x", "x\t"])
def test_evaluate_label_that_would_split_a_csv_row_is_one_error_line(tmp_path, capsys,
                                                                     monkeypatch, label):
    ran = []
    monkeypatch.setattr("recipe.evaluation.run_trials", lambda *args: ran.append(args))
    out_path = tmp_path / "c.csv"
    code, out, err = run_cli(capsys, "evaluate", "--pint-alpha", ".3", "--pint-p", ".2",
                             "--K", "3", "--trials", "5", "--label", label, "-o", str(out_path))
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1 and "label" in err
    assert not out_path.exists() and ran == []


@pytest.mark.parametrize("threads", ["0", "-4"])
@pytest.mark.parametrize("argv", [
    pytest.param(["evaluate", "--pint-alpha", ".5", "--pint-p", ".2", "--K", "3",
                  "--trials", "2"], id="evaluate"),
    pytest.param(["search", "qps", "--K", "4", "--restarts", "1"], id="search-qps"),
    pytest.param(["search", "qps", "--K", "1"], id="search-qps-K1"),
])
def test_threads_below_one_is_one_error_line(tmp_path, capsys, argv, threads):
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, f"--threads={threads}", "-o", str(out_path))
    assert code == 3
    assert out == "" and err == f"error: threads must be >= 1, got {threads}\n"
    assert not out_path.exists()


def test_evaluate_ks_beyond_K_is_one_error_line(tmp_path, capsys):
    # A K=5 code evaluated as a K=3 curve: k=4 and 5 fit the code but not the curve.
    ss, apa, table = tmp_path / "ss.json", tmp_path / "apa.json", tmp_path / "t.avst"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "5", "-o", str(ss))
    run_cli(capsys, "derive-apa", str(ss), "-o", str(apa))
    run_cli(capsys, "gen-avst", "--apa", str(apa), "--L", "50", "-o", str(table))
    out_path = tmp_path / "curve.csv"
    for flags in (["--seq", str(ss)], ["--apa", str(apa)], ["--avst", str(table)]):
        for ks in ("5", "1,4"):
            code, out, err = run_cli(capsys, "evaluate", *flags, "--K", "3", "--ks", ks,
                                     "--trials", "2", "-o", str(out_path))
            assert code == 3, (flags, ks)
            assert out == "" and len(err.splitlines()) == 1 and "K=3" in err
            assert not out_path.exists()


def test_negative_seed_is_read_mod_2_64(tmp_path, capsys):
    pint = ["--pint-alpha", ".5", "--pint-p", ".5"]
    _, want, _ = run_cli(capsys, "simulate", *pint, "--k", "4", "--seed", str(2**64 - 1))
    code, out, err = run_cli(capsys, "simulate", *pint, "--k", "4", "--seed", "-1")
    assert code == 0 and err == "" and out == want
    for seed in ("-1", str(2**64 - 1)):
        code, _, _ = run_cli(capsys, "evaluate", *pint, "--K", "3", "--trials", "20",
                             "--seed", seed, "-o", str(tmp_path / f"{seed}.csv"))
        assert code == 0
    assert (tmp_path / "-1.csv").read_bytes() == (tmp_path / f"{2**64 - 1}.csv").read_bytes()
    for argv in (["search", "hrs", "--K", "2", "--candidates", "2", "--trials", "4"],
                 ["search", "qps", "--K", "3", "--restarts", "1"]):
        code, _, err = run_cli(capsys, *argv, "--seed", "-1", "-o", str(tmp_path / "s.json"))
        assert code == 0 and err == ""


def _recipe_d_stream(tmp_path, capsys):
    """A K=3 sequence file and a 40-codeword stream for it, seed 5."""
    ss = tmp_path / "ss.json"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "3", "-o", str(ss))
    seq = read_sequence(ss)
    scheme = RecipeDScheme(derive_apa(seq), seed=5)
    ids = [0x101, 0x202, 0x303]
    lines = []
    n = 0
    pid = 0
    while n < 40:
        mask = replay_xor_mask(pid, 3, scheme)
        value = 0
        for h in range(3):
            if (mask >> h) & 1:
                value ^= ids[h]
        lines.append(json.dumps({"packet_id": pid, "codeword": value}))
        pid += 1
        n += 1
    stream = tmp_path / "cw.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    return ss, stream


def test_decode_stream_cli(tmp_path, capsys):
    ss, stream = _recipe_d_stream(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "decode", "--seq", str(ss), "--k", "3",
                           "--in", str(stream), "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] is True
    assert doc["resolved"] == {"1": 0x101, "2": 0x202, "3": 0x303}


def _assert_decode_mode_is_a_usage_error(tmp_path, capsys, modes):
    # The artifact flag names the protocol; there is no second way to say it.
    ss, stream = _recipe_d_stream(tmp_path, capsys)
    for mode in modes:
        code, out, err = run_cli(capsys, "decode", "--seq", str(ss), "--mode", mode,
                                 "--k", "3", "--in", str(stream), "--seed", "5")
        assert code == 1, mode
        assert out == "" and "unrecognized arguments: --mode" in err


def test_decode_mode_agreeing_with_artifacts_is_a_usage_error(tmp_path, capsys):
    _assert_decode_mode_is_a_usage_error(tmp_path, capsys, ("recipe-d",))


def test_decode_mode_disagreeing_with_artifacts_is_a_usage_error(tmp_path, capsys):
    _assert_decode_mode_is_a_usage_error(tmp_path, capsys, ("pint", "x"))


def test_path_length_outside_1_to_K_is_one_error_line(tmp_path, capsys):
    # PINT needs no diameter: its K is the --k given, so only k < 1 is out.
    ss, apa, table = tmp_path / "ss.json", tmp_path / "apa.json", tmp_path / "t.avst"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "3", "-o", str(ss))
    run_cli(capsys, "derive-apa", str(ss), "-o", str(apa))
    run_cli(capsys, "gen-avst", "--apa", str(apa), "--L", "50", "-o", str(table))
    empty = tmp_path / "none.jsonl"
    empty.write_text("")
    for flags, ks in ((["--seq", str(ss)], (0, -1, 4)), (["--avst", str(table)], (0, -1, 4)),
                      (["--pint-alpha", ".5", "--pint-p", ".2"], (0, -1))):
        for command in (["simulate"], ["decode", "--in", str(empty)]):
            for k in ks:
                code, out, err = run_cli(capsys, *command, *flags, f"--k={k}")
                assert code == 3, (command, flags, k)
                assert out == "" and len(err.splitlines()) == 1 and "path length" in err


def test_simulate_trace(tmp_path, capsys):
    ss = tmp_path / "ss.json"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "3", "-o", str(ss))
    code, out, _ = run_cli(capsys, "simulate", "--seq", str(ss), "--k", "3",
                           "--packets", "2", "--seed", "1")
    assert code == 0
    assert "hop 1" in out and "replayed XOR-set" in out
    code, out, _ = run_cli(capsys, "simulate", "--pint-alpha", "0.5", "--pint-p", "0.5",
                           "--k", "4", "--packets", "3", "--seed", "1")
    assert code == 0
    assert out.count("  hop ") == 3 * 4 and out.count("replayed XOR-set") == 3
    assert out.count("nu=") == 3 * 4 and "row=" not in out
    # Table-based hops read the packet's row, so the row is printed once per
    # packet and no per-hop draw is.
    apa, table = tmp_path / "apa.json", tmp_path / "t.avst"
    run_cli(capsys, "derive-apa", str(ss), "-o", str(apa))
    run_cli(capsys, "gen-avst", "--apa", str(apa), "--L", "50", "--seed", "2",
            "-o", str(table))
    code, out, _ = run_cli(capsys, "simulate", "--avst", str(table), "--k", "3",
                           "--packets", "2", "--seed", "1")
    assert code == 0
    assert out.count("  hop ") == 2 * 3 and out.count(" row=") == 2
    assert "nu=" not in out


def test_simulate_refuses_a_negative_packet_count(capsys):
    pint = ["--pint-alpha", "0.3", "--pint-p", "0.2", "--k", "3"]
    for packets in ("-1", "-2"):
        code, out, err = run_cli(capsys, "simulate", *pint, "--packets", packets)
        assert code == 3, packets
        assert out == "" and len(err.splitlines()) == 1 and "packet count" in err
    # No packet is a valid request: the switch IDs and nothing else.
    code, out, err = run_cli(capsys, "simulate", *pint, "--packets", "0")
    assert (code, err) == (0, "")
    assert out.startswith("switch IDs: ") and len(out.splitlines()) == 1


def test_search_subcommands(tmp_path, capsys):
    out_q = tmp_path / "qps.json"
    code, _, _ = run_cli(capsys, "search", "qps", "--K", "5", "--restarts", "2",
                         "--seed", "3", "-o", str(out_q), "--trace", str(tmp_path / "tr.csv"))
    assert code == 0
    seq = read_sequence(out_q)
    from recipe.feasibility import check_feasible
    assert check_feasible(seq).feasible
    assert (tmp_path / "tr.csv").read_text().startswith("start,iteration,objective")

    out_h = tmp_path / "hrs.json"
    code, _, _ = run_cli(capsys, "search", "hrs", "--K", "3", "--candidates", "5",
                         "--trials", "10", "--seed", "3", "-o", str(out_h))
    assert code == 0
    assert check_feasible(read_sequence(out_h)).feasible


@pytest.mark.parametrize("argv", [
    ["hrs", "--restarts", "2"],
    ["hrs", "--second-order"],
    ["qps", "--candidates", "4"],
    ["qps", "--trials", "4"],
    ["qps", "--start", "f.json"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]))
def test_search_refuses_the_other_algorithms_flags(tmp_path, capsys, argv):
    out = tmp_path / "seq.json"
    code, stdout, err = run_cli(capsys, "search", *argv, "--K", "3", "-o", str(out))
    assert code == 1
    assert stdout == "" and "unrecognized arguments" in err
    assert err.startswith(f"usage: recipe search {argv[0]} ")
    assert list(tmp_path.iterdir()) == []


def test_search_hrs_with_start_file(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    run_cli(capsys, "dist", "robust-soliton", "--K", "4", "-o", str(mu))
    doc = json.loads(mu.read_text())
    assert doc["k"] == 4 and len(doc["mu"]) == 4
    out = tmp_path / "hrs.json"
    code, _, _ = run_cli(capsys, "search", "hrs", "--K", "4", "--candidates", "4",
                         "--trials", "8", "--start", str(mu), "-o", str(out))
    assert code == 0
    got = read_sequence(out)
    assert got.xdd(4).mass == pytest.approx(doc["mu"], abs=1e-12)


def test_dist_invariant_expansion(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"k": 3, "mu": [0.5, 1 / 6, 1 / 3]}))
    out = tmp_path / "seq.json"
    code, _, _ = run_cli(capsys, "dist", "invariant", "--from", str(mu), "-o", str(out))
    assert code == 0
    seq = read_sequence(out)
    assert list(seq.xdd(2).mass) == pytest.approx([0.5, 0.5], abs=1e-12)


def _single_xdd_commands(path, tmp_path):
    return (["dist", "invariant", "--from", str(path), "-o", str(tmp_path / "seq.json")],
            ["search", "hrs", "--K", "2", "--candidates", "2", "--trials", "4",
             "--start", str(path), "-o", str(tmp_path / "hrs.json")])


def test_single_xdd_file_missing_key_exit_2(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    for doc in ({"mu": [0.5, 0.5]}, {"k": 2}):
        mu.write_text(json.dumps(doc))
        for argv in _single_xdd_commands(mu, tmp_path):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert "malformed single-XDD document" in err


def test_single_xdd_file_within_file_tolerance(tmp_path, capsys):
    # The same row passes `recipe check` inside a sequence file.
    mu = tmp_path / "mu.json"
    mu.write_text('{"k": 2, "mu": [0.1234567891, 0.8765432110]}')
    for argv in _single_xdd_commands(mu, tmp_path):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    seq = read_sequence(tmp_path / "seq.json")
    assert abs(float(seq.xdd(2).mass.sum()) - 1.0) < 1e-15


def test_compare_joins_curves(tmp_path, capsys):
    ss = tmp_path / "ss.json"
    run_cli(capsys, "dist", "shifted-soliton", "--K", "3", "-o", str(ss))
    a = tmp_path / "a.csv"
    run_cli(capsys, "evaluate", "--seq", str(ss), "--K", "3", "--trials", "100",
            "--seed", "1", "--label", "one", "-o", str(a))
    b = tmp_path / "b.csv"
    run_cli(capsys, "evaluate", "--pint-alpha", "0.5", "--pint-p", "0.2", "--K", "3",
            "--ks", "1,3", "--trials", "100", "--seed", "1", "--label", "two", "-o", str(b))
    joined = tmp_path / "joined.csv"
    code, _, _ = run_cli(capsys, "compare", str(a), str(b), "-o", str(joined))
    assert code == 0
    lines = joined.read_text().splitlines()
    assert lines[0] == "k,one:mean,one:q99,two:mean,two:q99"
    assert len(lines) == 4
    cells = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in cells] == ["1", "2", "3"]
    assert cells[1][3:] == ["", ""]  # curve two has no k=2 point
    assert all(cell for row in (cells[0], cells[2]) for cell in row)


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["check"]) == 1
    assert main(["evaluate", "--K", "3", "--bogus-flag"]) == 1


@pytest.mark.parametrize("argv", [
    [], ["dist"], ["check"], ["derive-apa"], ["gen-avst"], ["simulate"], ["decode"],
    ["search"], ["search", "hrs"], ["search", "qps"], ["evaluate"], ["compare"],
], ids=lambda argv: "-".join(argv) or "recipe")
def test_help_exits_0(argv, capsys):
    code, out, _ = run_cli(capsys, *argv, "--help")
    assert code == 0
    assert out.startswith("usage: recipe")


@pytest.mark.parametrize("argv", [
    ["dist", "shifted-soliton", "--K", "3"],
    ["check", "seq.json"],
    ["derive-apa", "seq.json", "-o", "apa.json"],
    ["compare", "a.csv"],
], ids=lambda argv: argv[0])
def test_seed_is_a_usage_error_where_nothing_is_drawn(argv, capsys):
    code, out, err = run_cli(capsys, *argv, "--seed", "3")
    assert code == 1
    assert out == "" and "unrecognized arguments: --seed 3" in err


_NOT_JSON = "not json\n"
# 64 random bytes; 0xff never occurs in UTF-8.
_NOT_UTF8 = b"\xff" + random.Random(64).randbytes(63)
_HRS = ["search", "hrs", "--K", "2", "--candidates", "2", "--trials", "4"]
_PINT = ["--pint-alpha", "0.5", "--pint-p", "0.2"]


# (file contents, argv with {f} for that file and {out} for an output, exit code)
@pytest.mark.parametrize("text, argv, want", [
    pytest.param(_NOT_JSON, ["check", "{f}"], 2, id="check-not-json"),
    pytest.param('{"K": 1, "mu": 5}', ["check", "{f}"], 2, id="check-mu-not-a-list"),
    pytest.param(_NOT_JSON, ["dist", "invariant", "--from", "{f}"], 2,
                 id="dist-invariant-not-json"),
    pytest.param('{"k": 1, "mu": 5}', ["dist", "invariant", "--from", "{f}"], 2,
                 id="dist-invariant-mu-not-a-list"),
    pytest.param(_NOT_JSON, [*_HRS, "--start", "{f}", "-o", "{out}"], 2,
                 id="search-hrs-start-not-json"),
    pytest.param(_NOT_JSON, ["derive-apa", "{f}", "-o", "{out}"], 2, id="derive-apa-not-json"),
    pytest.param(_NOT_JSON, ["evaluate", "--apa", "{f}", "--K", "2", "--trials", "2"], 2,
                 id="evaluate-apa-not-json"),
    pytest.param(_NOT_JSON, ["gen-avst", "--apa", "{f}", "-o", "{out}"], 2,
                 id="gen-avst-not-json"),
    pytest.param('{"p": [[[0, 0, 1]]]}', ["gen-avst", "--apa", "{f}", "-o", "{out}"], 2,
                 id="gen-avst-apa-without-K"),
    pytest.param('{"K": 1}', ["gen-avst", "--apa", "{f}", "-o", "{out}"], 2,
                 id="gen-avst-apa-without-p"),
    pytest.param(CSV_HEADER + "\nss,3,1,10\n", ["compare", "{f}"], 2,
                 id="compare-row-of-4-fields"),
    pytest.param("k,mean\n1,2\n", ["compare", "{f}"], 2, id="compare-wrong-header"),
    pytest.param('{"packet_id": 1}\n', ["decode", *_PINT, "--k", "2", "--in", "{f}"], 2,
                 id="decode-line-without-codeword"),
    pytest.param('{"packet_id": 1.5, "codeword": 3}\n',
                 ["decode", *_PINT, "--k", "2", "--in", "{f}"], 2, id="decode-float-packet-id"),
    pytest.param('{"packet_id": true, "codeword": 3}\n',
                 ["decode", *_PINT, "--k", "2", "--in", "{f}"], 2, id="decode-bool-packet-id"),
    pytest.param('{"packet_id": "7", "codeword": 3}\n',
                 ["decode", *_PINT, "--k", "2", "--in", "{f}"], 2, id="decode-string-packet-id"),
    pytest.param('{"packet_id": 1, "codeword": 2.0}\n',
                 ["decode", *_PINT, "--k", "2", "--in", "{f}"], 2, id="decode-float-codeword"),
    pytest.param('{"packet_id": 1, "codeword": false}\n',
                 ["decode", *_PINT, "--k", "2", "--in", "{f}"], 2, id="decode-bool-codeword"),
    pytest.param('{"packet_id": 3, "codeword": -7}\n{"packet_id": 4, "codeword": -7}\n',
                 ["decode", "--pint-alpha", "1", "--pint-p", ".2", "--k", "1", "--in", "{f}"], 2,
                 id="decode-negative-codeword"),
    pytest.param('{"packet_id": -1, "codeword": 3}\n',
                 ["decode", *_PINT, "--k", "2", "--in", "{f}"], 2, id="decode-negative-packet-id"),
    pytest.param('{"packet_id": 18446744073709551616, "codeword": 3}\n',
                 ["decode", *_PINT, "--k", "2", "--in", "{f}"], 2,
                 id="decode-packet-id-2-to-the-64"),
    pytest.param(_NOT_UTF8, ["check", "{f}"], 2, id="check-not-utf8"),
    pytest.param(_NOT_UTF8, ["dist", "invariant", "--from", "{f}"], 2,
                 id="dist-invariant-not-utf8"),
    pytest.param(_NOT_UTF8, ["gen-avst", "--apa", "{f}", "-o", "{out}"], 2,
                 id="gen-avst-not-utf8"),
    pytest.param(_NOT_UTF8, ["compare", "{f}"], 2, id="compare-not-utf8"),
    pytest.param(_NOT_UTF8, ["decode", *_PINT, "--k", "2", "--in", "{f}"], 2,
                 id="decode-not-utf8"),
])
def test_malformed_artifact_is_one_error_line(tmp_path, capsys, text, argv, want):
    path = tmp_path / "artifact"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = [a.format(f=path, out=tmp_path / "out") for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == want
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and "malformed" in err


def test_validation_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": 1, "mu": [[0.4]]}')
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2


def test_missing_file_exit_3(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/seq.json")
    assert code == 3


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RECIPE_SEED", "99")
    out1 = tmp_path / "a.csv"
    code, _, _ = run_cli(capsys, "evaluate", "--pint-alpha", "0.5", "--pint-p", "0.2",
                         "--K", "2", "--trials", "50", "-o", str(out1))
    assert code == 0
    monkeypatch.delenv("RECIPE_SEED")
    out2 = tmp_path / "b.csv"
    run_cli(capsys, "evaluate", "--pint-alpha", "0.5", "--pint-p", "0.2",
            "--K", "2", "--trials", "50", "--seed", "99", "-o", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    # The parser is built once per process; the variable is read per call.
    out3 = tmp_path / "c.csv"
    run_cli(capsys, "evaluate", "--pint-alpha", "0.5", "--pint-p", "0.2",
            "--K", "2", "--trials", "50", "-o", str(out3))
    assert json.loads((tmp_path / "c.csv.manifest.json").read_text())["seed"] == 0


def test_non_integer_seed_env_is_one_usage_error_line(capsys, monkeypatch):
    monkeypatch.setenv("RECIPE_SEED", "abc")
    code, out, err = run_cli(capsys, "simulate", "--pint-alpha", ".5", "--pint-p", ".2",
                             "--k", "2")
    assert code == 1
    assert out == "" and len(err.splitlines()) == 1 and "RECIPE_SEED" in err


def test_readme_cli_examples_parse():
    # Each `recipe ...` line of README's CLI section parses; nothing runs.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = [line for line in section.splitlines() if line.startswith("recipe ")]
    assert len(examples) >= 16
    for line in examples:
        try:
            _build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
