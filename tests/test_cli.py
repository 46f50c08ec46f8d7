import csv
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from privsample import PrivacyParams, SbhConfig, compute_pij, sbh_concordance_prob
from privsample.cli import main
from privsample.experiments import DELTA_GRID_DEFAULT, TAU_GRID_DEFAULT
from privsample.formats import fmt, read_keyed_tsv, read_pi_csv, read_pij_csv, write_pij_csv


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFloatFormat:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        for x in rng.random(1000):
            assert float(fmt(x)) == x
        for x in [1e-300, 1.0, 0.1 + 0.2, math.pi]:
            assert float(fmt(x)) == x


class TestPiCommand:
    def test_first_row(self, capsys):
        code, out, _ = run(
            ["pi", "--epsilon", "0.1", "--delta", "0.01", "--scheme", "none",
             "--max-freq", "100"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["i"] == "1"
        assert float(rows[0]["pi_i"]) == 0.01

    def test_byte_identical_reruns(self, capsys):
        args = ["pi", "--epsilon", "0.3", "--delta", "0.001", "--scheme", "ppswor",
                "--tau", "0.2", "--max-freq", "50"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2


class TestVerifyRoundTrip:
    def test_pij_export_import_lossless(self, params_std, scheme_none, tmp_path):
        table = compute_pij(params_std, scheme_none, 60)
        path = tmp_path / "pij.csv"
        with open(path, "w") as fp:
            write_pij_csv(fp, table)
        with open(path) as fp:
            back = read_pij_csv(fp)
        np.testing.assert_array_equal(back.dense(), table.dense())

    def test_pij_export_keeps_band_starts(self, tmp_path, capsys):
        # rounding leaves about 8.7e-18 of forced mass below row 99's band at
        # row 100 here; placed at token 1, it would widen the block to 100
        path = tmp_path / "pij.csv"
        code, _, _ = run(
            ["pij", "--table", "alg4", "--epsilon", "0.1", "--delta", "0.01", "--scheme", "pps",
             "--tau", "0.01", "--max-freq", "200", "--out", str(path)],
            capsys,
        )
        assert code == 0
        with open(path) as fp:
            back = read_pij_csv(fp)
        assert back.width == 38
        assert back.dense()[100, 1] == 0.0

    def test_verify_dp_passes_on_export(self, tmp_path, capsys):
        code, out, _ = run(
            ["pij", "--epsilon", "0.1", "--delta", "0.01", "--scheme", "none",
             "--max-freq", "80", "--out", str(tmp_path / "t.csv")],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            ["verify-dp", "--epsilon", "0.1", "--delta", "0.01",
             "--table", str(tmp_path / "t.csv"), "--kind", "pij"],
            capsys,
        )
        assert code == 0
        assert out.startswith("verify-dp pass")

    def test_verify_dp_on_pi_export(self, tmp_path, capsys):
        code, _, _ = run(
            ["pi", "--epsilon", "0.2", "--delta", "0.001", "--scheme", "ppswor",
             "--tau", "0.5", "--max-freq", "150", "--out", str(tmp_path / "pi.csv")],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            ["verify-dp", "--epsilon", "0.2", "--delta", "0.001",
             "--table", str(tmp_path / "pi.csv"), "--kind", "pi"],
            capsys,
        )
        assert code == 0
        assert out.startswith("verify-dp pass")

    def test_verify_dp_fails_on_wrong_epsilon(self, tmp_path, capsys):
        run(
            ["pij", "--epsilon", "0.1", "--delta", "0.01", "--scheme", "none",
             "--max-freq", "80", "--out", str(tmp_path / "t.csv")],
            capsys,
        )
        code, out, _ = run(
            ["verify-dp", "--epsilon", "0.05", "--delta", "0.01",
             "--table", str(tmp_path / "t.csv"), "--kind", "pij"],
            capsys,
        )
        assert code == 1
        assert "FAIL" in out

    def test_verify_dp_rejects_bad_indices(self, tmp_path, capsys):
        # a negative index would wrap into the last row and a repeated entry
        # would silently overwrite; both must fail closed
        good = "i,j,pi_ij\n0,0,1\n1,0,0.5\n1,1,0.5\n"
        for extra, message in [("-1,1,0.25\n", "negative index"),
                               ("1,1,0.4\n", "repeats entry i=1, j=1")]:
            path = tmp_path / "t.csv"
            path.write_text(good + extra)
            with pytest.raises(ValueError, match=message):
                with open(path) as fp:
                    read_pij_csv(fp)
            code, out, err = run(
                ["verify-dp", "--epsilon", "0.1", "--delta", "0.5",
                 "--table", str(path), "--kind", "pij"],
                capsys,
            )
            assert code == 1
            assert out == ""
            assert message in err

    @pytest.mark.parametrize("kind, text", [
        # every key reported with probability 1: each pair passes, row 0 does not
        ("pij", "0,0,0\n0,1,1\n1,0,0\n1,1,1\n2,0,0\n2,1,1\n"),
        ("pi", "0,1,1,1\n1,1,1,1\n2,1,1,1\n"),
    ])
    def test_verify_dp_rejects_a_row_0_that_reports(self, tmp_path, capsys, kind, text):
        header = {"pij": "i,j,pi_ij\n", "pi": "i,q_i,pi_i,p_i\n"}[kind]
        path = tmp_path / "t.csv"
        path.write_text(header + text)
        code, out, err = run(
            ["verify-dp", "--epsilon", "0.1", "--delta", "0.5", "--table", str(path),
             "--kind", kind],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == "error: row 0 must be the law of an absent key: all mass on token 0\n"

    def test_verify_dp_rejects_a_wrong_header(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("i,j,p\r\n0,0,1\r\n1,0,0.5\r\n1,1,0.5\r\n")
        code, out, err = run(
            ["verify-dp", "--epsilon", "0.1", "--delta", "0.5", "--table", str(path)], capsys
        )
        assert code == 1
        assert out == ""
        assert err == "error: expected a CSV with header i,j,pi_ij\n"

    def test_verify_dp_rejects_bad_pi_indices(self, tmp_path, capsys):
        # as for pij: -1 would wrap onto the last frequency and a repeated i
        # would silently overwrite
        good = "i,q_i,pi_i,p_i\n1,1,0.01,0.01\n2,1,0.02,0.02\n"
        for extra, message in [("-5,1,0.5,0.5\n", "negative index"),
                               ("-1,1,0.5,0.5\n", "negative index"),
                               ("2,1,0.03,0.03\n", "repeats entry i=2"),
                               ("-1,1,0.5,0.5\n2,1,0.03,0.03\n", "negative index"),
                               ("3,1\n", "invalid column index 2")]:
            path = tmp_path / "pi.csv"
            path.write_text(good + extra)
            with pytest.raises(ValueError, match=message):
                with open(path) as fp:
                    read_pi_csv(fp)
            code, out, err = run(
                ["verify-dp", "--epsilon", "0.1", "--delta", "0.5",
                 "--table", str(path), "--kind", "pi"],
                capsys,
            )
            assert code == 1
            assert out == ""
            assert message in err

    def test_header_without_entries(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="table file holds no entries"):
                read_pij_csv(io.StringIO("i,j,pi_ij\n"))


class TestUnbiasedNoiseWarning:
    @pytest.mark.parametrize("max_freq, warns", [(40, False), (150, True), (1500, True)])
    def test_warns_only_when_coefficients_are_noise(self, tmp_path, capsys, max_freq, warns):
        out_csv = tmp_path / "moments.csv"
        code, out, err = run(
            ["analyze", "moments", "--epsilon", "0.5", "--delta", "0.001",
             "--scheme", "ppswor", "--tau", "0.05", "--max-freq", str(max_freq),
             "--table", "alg4", "--estimator", "unbiased", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        assert out == ""
        if warns:
            assert err.count("\n") == 1
            assert err.startswith("warning: ") and "at frequency " in err
        else:
            assert err == ""

    def test_estimate_warns_in_one_line(self, tmp_path, capsys):
        # the coefficients overflow to inf and nan on the way, and the one
        # warning line is all that reaches stderr
        tokens = tmp_path / "tokens.tsv"
        tokens.write_text("a\t3\nb\t70\nc\t900\n")
        code, out, err = run(
            ["estimate", "--input", str(tokens), "--epsilon", "0.5", "--delta", "0.001",
             "--scheme", "ppswor", "--tau", "0.05", "--max-freq", "1500", "--table", "alg4",
             "--estimator", "unbiased"],
            capsys,
        )
        assert code == 0
        float(out)
        assert err.count("\n") == 1
        assert err.startswith("warning: ") and "at frequency " in err


class TestSanitizePipeline:
    @pytest.fixture()
    def sample_file(self, tmp_path):
        path = tmp_path / "sample.tsv"
        with open(path, "w") as fp:
            for i in range(50):
                fp.write(f"key{i}\t{(i % 20) + 1}\n")
        return path

    def test_keys_mode(self, sample_file, capsys):
        code, out, _ = run(
            ["sanitize", "--mode", "keys", "--input", str(sample_file),
             "--epsilon", "0.5", "--delta", "0.1", "--scheme", "none",
             "--max-freq", "20", "--seed", "5"],
            capsys,
        )
        assert code == 0
        kept = [line for line in out.splitlines() if line]
        assert set(kept) <= {f"key{i}" for i in range(50)}

    def test_freqs_mode_deterministic(self, sample_file, capsys):
        args = ["sanitize", "--mode", "freqs", "--input", str(sample_file),
                "--epsilon", "0.5", "--delta", "0.1", "--scheme", "none",
                "--max-freq", "20", "--seed", "5"]
        code, out1, _ = run(args, capsys)
        assert code == 0
        _, out2, _ = run(args, capsys)
        assert out1 == out2
        for line in out1.splitlines():
            key, token = line.split("\t")
            assert int(token) >= 1

    def test_stdin_input_matches_the_file(self, sample_file, tmp_path, capsys, monkeypatch):
        argv = ["sanitize", "--mode", "freqs", "--epsilon", "0.5", "--delta", "0.1",
                "--scheme", "ppswor", "--tau", "0.5", "--max-freq", "20", "--seed", "5"]
        outputs = []
        for source in (str(sample_file), "-"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(sample_file.read_text()))
            out_path = tmp_path / f"out{len(outputs)}.tsv"
            code, _, _ = run([*argv, "--input", source, "--out", str(out_path)], capsys)
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] != b""

    def test_tau_zero_sample_is_empty(self, tmp_path, capsys):
        hist = tmp_path / "h.tsv"
        hist.write_text("a\t5\nb\t2\n")
        code, out, _ = run(
            ["sample", "--input", str(hist), "--scheme", "ppswor", "--tau", "0.0",
             "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert out == ""

    def test_sanitize_tau_zero_sample(self, tmp_path, capsys):
        # a tau=0 scheme samples nothing; sanitizing the (empty) sample is
        # a clean no-op, not an error
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code, out, _ = run(
            ["sanitize", "--mode", "keys", "--input", str(empty),
             "--epsilon", "0.5", "--delta", "0.1", "--scheme", "ppswor",
             "--tau", "0.0", "--max-freq", "5", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert out == ""

    def test_missing_seed_is_usage_error(self, sample_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sanitize", "--mode", "keys", "--input", str(sample_file),
                  "--epsilon", "0.5", "--delta", "0.1", "--scheme", "none",
                  "--max-freq", "20"])
        assert exc.value.code == 2

    def test_invalid_flag_combinations_are_usage_errors(self, sample_file):
        # scheme needing a threshold, threshold on scheme none, bad epsilon,
        # the removed --threads flag; the scheme flags are checked before an
        # input that does not exist is opened
        missing = str(sample_file.parent / "missing.tsv")
        for argv in (
            ["sample", "--input", missing, "--scheme", "ppswor", "--seed", "1"],
            ["baseline", "sampled-sbh", "--input", missing, "--epsilon", "0.1",
             "--delta", "0.01", "--scheme", "ppswor", "--seed", "1"],
            ["sanitize", "--mode", "keys", "--input", str(sample_file),
             "--epsilon", "0.5", "--delta", "0.1", "--scheme", "ppswor",
             "--max-freq", "20", "--seed", "5"],
            ["pi", "--epsilon", "0.5", "--delta", "0.1", "--scheme", "none",
             "--tau", "0.3", "--max-freq", "5"],
            ["pi", "--epsilon", "-2", "--delta", "0.1", "--scheme", "none",
             "--max-freq", "5"],
            ["--threads", "1", "pi", "--epsilon", "0.5", "--delta", "0.1",
             "--max-freq", "5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_bad_data_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no_tab_here\n")
        code, _, err = run(
            ["sanitize", "--mode", "keys", "--input", str(bad),
             "--epsilon", "0.5", "--delta", "0.1", "--scheme", "none",
             "--max-freq", "20", "--seed", "5"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("mode", ["keys", "freqs"])
    @pytest.mark.parametrize("text, lineno", [
        ("a\t3\nno_tab_here\n", 2),
        ("a\t3\n\nb\t2.5\n", 3),
        ("a\tthree\n", 1),
        ("a\t3\tb\t4\n", 1),
    ])
    def test_malformed_line_names_its_number(self, tmp_path, capsys, mode, text, lineno):
        bad = tmp_path / "bad.tsv"
        bad.write_text(text)
        out_path = tmp_path / "out.tsv"
        code, out, err = run(
            ["sanitize", "--mode", mode, "--input", str(bad),
             "--epsilon", "0.5", "--delta", "0.1", "--scheme", "none",
             "--max-freq", "20", "--seed", "5", "--out", str(out_path)],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: line {lineno}: expected 'key<TAB>value'")
        assert out == ""
        assert not out_path.exists()

    # with scheme none the bad key comes after more valid keys than one
    # batch of draws; with tau 0 every key has q_w = 0
    VALID_LINES = "".join(f"key{i}\t{i % 7 + 1}\n" for i in range(5000))

    @pytest.mark.parametrize("mode", ["keys", "freqs"])
    @pytest.mark.parametrize("scheme, text, message", [
        (["--scheme", "none"], VALID_LINES + "bad\t0\n", "frequency 0 outside table range"),
        (["--scheme", "none"], VALID_LINES + "bad\t-4\n", "frequency -4 outside table range"),
        (["--scheme", "ppswor", "--tau", "0.0"], "bad\t7\n", "q_7 = 0"),
    ])
    def test_bad_frequency_fails_before_any_output(self, tmp_path, capsys, mode, scheme,
                                                  text, message):
        sample = tmp_path / "sample.tsv"
        sample.write_text(text)
        out_path = tmp_path / "out.tsv"
        for out_args in (["--out", str(out_path)], []):
            code, out, err = run(
                ["sanitize", "--mode", mode, "--input", str(sample),
                 "--epsilon", "0.5", "--delta", "0.1", *scheme, "--max-freq", "20",
                 "--seed", "5", *out_args],
                capsys,
            )
            assert code == 1
            assert message in err
            assert out == ""
        assert not out_path.exists()

    def test_missing_max_freq_is_usage_error(self, sample_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sanitize", "--mode", "freqs", "--input", str(sample_file),
                  "--epsilon", "0.5", "--delta", "0.1", "--scheme", "none", "--seed", "5"])
        assert exc.value.code == 2
        assert "--max-freq" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["keys", "freqs"])
    def test_frequency_above_range_fails_closed(self, tmp_path, capsys, mode):
        sample = tmp_path / "sample.tsv"
        sample.write_text("a\t20\nb\t21\n")
        out_path = tmp_path / "out.tsv"
        code, out, err = run(
            ["sanitize", "--mode", mode, "--input", str(sample), "--epsilon", "0.5",
             "--delta", "0.1", "--scheme", "none", "--max-freq", "20", "--seed", "5",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 1
        assert "frequency 21 outside table range 1..20" in err
        assert not out_path.exists()

    def test_tokens_do_not_depend_on_other_keys(self, tmp_path, capsys):
        # With the range taken from the sample, key a's alg5 tokens shifted
        # when key b moved from 100 to 101 (235 249 ... against 236 251 ...).
        tokens = {}
        for b in (100, 101):
            sample = tmp_path / f"sample{b}.tsv"
            sample.write_text(f"a\t99\nb\t{b}\n")
            tokens[b] = []
            for seed in range(1, 7):
                code, out, _ = run(
                    ["sanitize", "--mode", "freqs", "--table", "alg5", "--input", str(sample),
                     "--scheme", "none", "--epsilon", "0.1", "--delta", "0.01",
                     "--max-freq", "120", "--seed", str(seed)],
                    capsys,
                )
                assert code == 0
                tokens[b] += [int(line.split("\t")[1]) for line in out.splitlines()
                              if line.startswith("a\t")]
        assert tokens[100] == tokens[101] == [252, 281, 269, 240, 228, 261]


class TestRepeatedKey:
    TEXT = "a\t5\nb\t7\n\na\t300\n"  # the repeat sits on line 4, after a blank line

    @pytest.mark.parametrize("mode", ["keys", "freqs"])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_sanitize_fails_closed(self, tmp_path, capsys, mode, to_file):
        sample = tmp_path / "sample.tsv"
        sample.write_text(self.TEXT)
        out_path = tmp_path / "out.tsv"
        code, out, err = run(
            ["sanitize", "--mode", mode, "--input", str(sample), "--scheme", "none",
             "--epsilon", "0.5", "--delta", "0.01", "--max-freq", "400", "--seed", "5",
             *(["--out", str(out_path)] if to_file else [])],
            capsys,
        )
        assert code == 1
        assert err == "error: line 4: repeated key 'a'\n"
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--scheme", "ppswor", "--tau", "0.5", "--seed", "1"],
        ["estimate", "--epsilon", "0.5", "--delta", "0.01", "--max-freq", "20"],
        ["baseline", "sbh", "--epsilon", "0.5", "--delta", "0.01", "--seed", "1"],
    ])
    def test_every_keyed_reader_fails_closed(self, tmp_path, capsys, argv):
        data = tmp_path / "in.tsv"
        data.write_text("k\t3\nk\t4\n")
        out_path = tmp_path / "out.tsv"
        out_args = [] if argv[0] == "estimate" else ["--out", str(out_path)]
        code, out, err = run([*argv, "--input", str(data), *out_args], capsys)
        assert code == 1
        assert err == "error: line 2: repeated key 'k'\n"
        assert out == ""
        assert not out_path.exists()

    def test_empty_key_repeat_is_named(self):
        with pytest.raises(ValueError, match="line 3: repeated key ''"):
            read_keyed_tsv(io.StringIO("\t1\nx\t2\n\t3\n"))

    def test_unseekable_stream_still_fails(self):
        class Pipe(io.StringIO):
            def seekable(self):
                return False

        with pytest.raises(ValueError, match="^line 2: repeated key 'a'$"):
            read_keyed_tsv(Pipe("a\t1\na\t2\n"))
        assert read_keyed_tsv(Pipe("a\t1\n\nb\t2\n")) == {"a": 1, "b": 2}


class TestSampleBadFrequency:
    @pytest.mark.parametrize("freq", [-3, 0])
    @pytest.mark.parametrize("scheme", [
        ["--scheme", "pps", "--tau", "0.1", "--power", "0.5"],
        ["--scheme", "none"],
        ["--scheme", "ppswor", "--tau", "0.1"],
    ])
    def test_fails_closed(self, tmp_path, capsys, scheme, freq):
        data = tmp_path / "in.tsv"
        data.write_text(f"b\t2\na\t{freq}\n")
        out_path = tmp_path / "out.tsv"
        code, out, err = run(["sample", "--input", str(data), *scheme, "--seed", "1",
                              "--out", str(out_path)], capsys)
        assert code == 1
        assert err == f"error: frequencies must be positive, got {freq} for key 'a'\n"
        assert out == ""
        assert not out_path.exists()


class TestTabInElementKey:
    # a key with a tab would come out as a line no keyed reader accepts
    TEXT = "a\tb\nc\nc\n"

    def test_sample_aggregate_fails_closed(self, tmp_path, capsys):
        stream = tmp_path / "elements.txt"
        stream.write_text(self.TEXT)
        out_path = tmp_path / "out.tsv"
        code, out, err = run(
            ["sample", "--aggregate", "--input", str(stream), "--scheme", "none", "--seed", "1",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 1
        assert err == "error: line 1: key contains a tab\n"
        assert out == ""
        assert not out_path.exists()

    def test_estimate_select_fails_closed(self, tmp_path, capsys):
        sanitized, select = tmp_path / "sanitized.tsv", tmp_path / "select.txt"
        sanitized.write_text("c\t3\n")
        select.write_text("c\n" + self.TEXT)
        code, out, err = run(
            ["estimate", "--input", str(sanitized), "--epsilon", "0.5", "--delta", "0.01",
             "--max-freq", "20", "--select", str(select)],
            capsys,
        )
        assert code == 1
        assert err == "error: line 2: key contains a tab\n"
        assert out == ""


def test_cli_import_leaves_scipy_integrate_out():
    # the library's only runtime dependency is numpy; scipy is for the tests
    code = "import privsample.cli, sys; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout == "False\n"


class TestEstimatePipeline:
    def test_full_round_trip(self, tmp_path, capsys):
        # aggregate -> sample -> sanitize -> estimate, all through the CLI
        stream = tmp_path / "elements.txt"
        with open(stream, "w") as fp:
            for i in range(30):
                for _ in range(40):
                    fp.write(f"key{i}\n")
        sample = tmp_path / "sample.tsv"
        code, _, _ = run(
            ["sample", "--input", str(stream), "--aggregate", "--scheme", "ppswor",
             "--tau", "1.0", "--seed", "3", "--out", str(sample)],
            capsys,
        )
        assert code == 0
        sanitized = tmp_path / "san.tsv"
        code, _, _ = run(
            ["sanitize", "--mode", "freqs", "--input", str(sample),
             "--epsilon", "0.5", "--delta", "0.05", "--scheme", "ppswor",
             "--tau", "1.0", "--max-freq", "40", "--table", "alg4",
             "--seed", "4", "--out", str(sanitized)],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            ["estimate", "--input", str(sanitized), "--epsilon", "0.5",
             "--delta", "0.05", "--scheme", "ppswor", "--tau", "1.0",
             "--max-freq", "40", "--estimator", "mle"],
            capsys,
        )
        assert code == 0
        estimate = float(out.strip())
        # true statistic is 1200; the estimate should be in a sane range
        assert 0 < estimate < 5 * 1200

        # restricting the selection can only shrink a nonnegative estimate
        select = tmp_path / "select.txt"
        select.write_text("".join(f"key{i}\n" for i in range(10)))
        code, out, _ = run(
            ["estimate", "--input", str(sanitized), "--epsilon", "0.5",
             "--delta", "0.05", "--scheme", "ppswor", "--tau", "1.0",
             "--max-freq", "40", "--estimator", "mle", "--select", str(select)],
            capsys,
        )
        assert code == 0
        assert 0 <= float(out.strip()) <= estimate

    def test_token_above_the_table_fails_closed(self, tmp_path, capsys):
        sanitized = tmp_path / "private.tsv"
        sanitized.write_text("a\t3\nb\t999\n")
        code, out, err = run(
            ["estimate", "--input", str(sanitized), "--epsilon", "0.5", "--delta", "0.05",
             "--max-freq", "6"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == "error: token 999 outside coefficient range\n"

    def test_readme_pipeline_with_default_tables(self, tmp_path, capsys):
        # sample -> sanitize -> estimate as the README shows it, no --table:
        # both commands must use the same table, the one an explicit
        # --table alg4 picks
        hist = tmp_path / "hist.tsv"
        hist.write_text("".join(f"k{j}\t{j % 100 + 1}\n" for j in range(2000)))  # sum 101000
        sample = tmp_path / "s.tsv"
        scheme = ["--scheme", "ppswor", "--tau", "0.1"]
        common = ["--epsilon", "0.1", "--delta", "0.01", *scheme, "--max-freq", "500"]
        assert run(["sample", "--input", str(hist), *scheme, "--seed", "1",
                    "--out", str(sample)], capsys)[0] == 0
        outputs, estimates = [], []
        for table in ([], ["--table", "alg4"]):
            private = tmp_path / f"private{len(table)}.tsv"
            assert run(["sanitize", "--mode", "freqs", "--input", str(sample), *common, *table,
                        "--seed", "2", "--out", str(private)], capsys)[0] == 0
            code, out, _ = run(["estimate", "--input", str(private), *common, *table,
                                "--estimator", "mle"], capsys)
            assert code == 0
            outputs.append(private.read_bytes())
            estimates.append(float(out))
        assert outputs[0] == outputs[1]
        assert estimates[0] == estimates[1]
        assert abs(estimates[0] - 101_000) < 0.05 * 101_000


class TestIgnoredFlags:
    """A flag that would not change the output is a usage error, raised before any output.

    ``IN`` in an argv stands for a small keyed input file.
    """

    PRIV = ["--epsilon", "0.5", "--delta", "0.05"]

    @staticmethod
    def _argv(tmp_path, argv):
        data = tmp_path / "in.tsv"
        data.write_text("a\t3\nb\t5\n")
        return [str(data) if arg == "IN" else arg for arg in argv]

    @pytest.mark.parametrize("argv, flag", [
        (["baseline", "sbh", "--input", "IN", *PRIV, "--scheme", "ppswor", "--tau", "0.1",
          "--seed", "1"], "--scheme"),
        (["baseline", "sbh", "--input", "IN", *PRIV, "--power", "0.5", "--seed", "1"],
         "--power"),
        (["analyze", "concordance", *PRIV, "--method", "sbh", "--scheme", "pps", "--tau", "0.1",
          "--max-freq", "6"], "--scheme"),
        (["analyze", "concordance", *PRIV, "--method", "sbh", "--power", "2", "--max-freq", "6"],
         "--power"),
        (["pi", *PRIV, "--scheme", "none", "--power", "2", "--max-freq", "6"], "--power"),
        (["sample", "--input", "IN", "--scheme", "none", "--power", "0.5", "--seed", "1"],
         "--power"),
        (["baseline", "sampled-sbh", "--input", "IN", *PRIV, "--power", "0.5", "--seed", "1"],
         "--power"),
        (["sanitize", "--mode", "freqs", "--input", "IN", *PRIV, "--power", "0.5",
          "--max-freq", "6", "--seed", "1"], "--power"),
        (["analyze", "sweep", *PRIV, "--sweep", "delta", "--scheme", "none", "--dist", "uniform",
          "--n-keys", "50"], "--delta"),
        (["analyze", "concordance", *PRIV, "--max-freq", "6", "--dist", "uniform"], "--dist"),
        (["analyze", "concordance", *PRIV, "--max-freq", "6", "--n-keys", "20"], "--n-keys"),
        (["sanitize", "--mode", "keys", "--input", "IN", *PRIV, "--table", "alg5",
          "--max-freq", "6", "--seed", "1"], "--table"),
    ])
    def test_exits_two_without_output(self, tmp_path, capsys, argv, flag):
        out_path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([*self._argv(tmp_path, argv), "--out", str(out_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["pi", "--epsilon", "-1", "--delta", "0.05", "--max-freq", "6"],
        ["analyze", "nrmse", "--epsilon", "-1", *PRIV[2:], "--grid", "0.5",
         "--dist", "uniform", "--n-keys", "50"],
        ["analyze", "nrmse", *PRIV, "--power", "3", "--grid", "0.5", "--dist", "uniform",
         "--n-keys", "50"],
        ["analyze", "nrmse", *PRIV, "--grid", "0.5,x", "--dist", "uniform", "--n-keys", "50"],
        ["analyze", "sweep", *PRIV, "--grid", "-1", "--dist", "uniform", "--n-keys", "50"],
        ["analyze", "sweep", *PRIV, "--power", "3", "--grid", "0.5", "--dist", "uniform",
         "--n-keys", "50"],
        ["analyze", "sweep", "--epsilon", "0.5", "--sweep", "delta", "--scheme", "none",
         "--grid", "0.1,2", "--dist", "uniform", "--n-keys", "50"],
        ["analyze", "sweep", "--epsilon", "-1", "--sweep", "delta", "--scheme", "none",
         "--grid", "0.1", "--dist", "uniform", "--n-keys", "50"],
        ["analyze", "sweep", *PRIV, "--grid", "", "--dist", "uniform", "--n-keys", "50"],
        ["analyze", "nrmse", *PRIV, "--grid", "", "--dist", "uniform", "--n-keys", "50"],
        ["analyze", "sweep", *PRIV, "--grid", "0.5", "--n-keys", "0"],
        ["analyze", "sweep", *PRIV, "--grid", "0.5", "--alpha", "-1"],
        ["analyze", "sweep", *PRIV, "--grid", "0.5", "--w-max", "0"],
        ["analyze", "nrmse", *PRIV, "--grid", "0.5", "--dist", "uniform", "--n-keys", "0"],
        ["analyze", "nrmse", *PRIV, "--grid", "0.5", "--dist", "uniform", "--freq-min", "0"],
        ["analyze", "nrmse", *PRIV, "--grid", "0.5", "--dist", "uniform", "--freq-min", "5",
         "--freq-max", "4"],
        ["analyze", "concordance", *PRIV, "--max-freq", "6", "--kendall", "--n-keys", "0"],
    ])
    def test_invalid_values_exit_two_without_output(self, tmp_path, capsys, argv):
        out_path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["pi", *PRIV, "--out", "OUT"],
        ["pij", *PRIV, "--out", "OUT"],
        ["pdfs", *PRIV, "--segments-out", "OUT", "--atoms-out", "OUT"],
        # the input does not exist: the flag is checked before any input is read
        ["sanitize", "--mode", "freqs", "--input", "/nonexistent", *PRIV, "--seed", "1",
         "--out", "OUT"],
        ["estimate", "--input", "IN", *PRIV],
        ["analyze", "moments", *PRIV, "--out", "OUT"],
        ["analyze", "concordance", *PRIV, "--method", "pws", "--out", "OUT"],
        ["analyze", "concordance", *PRIV, "--method", "sbh", "--out", "OUT"],
    ], ids=["pi", "pij", "pdfs", "sanitize", "estimate", "moments", "concordance-pws",
            "concordance-sbh"])
    def test_max_freq_below_one_is_a_usage_error(self, tmp_path, capsys, argv, value):
        out_path = tmp_path / "out.csv"
        argv = [str(out_path) if arg == "OUT" else arg for arg in self._argv(tmp_path, argv)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--max-freq", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --max-freq: max_frequency must be >= 1, got {value}" in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("power", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("command", [
        ["estimate", "--input", "IN"],
        ["analyze", "moments", "--out", "OUT"],
    ], ids=["estimate", "moments"])
    def test_non_finite_g_power_is_a_usage_error(self, tmp_path, capsys, command, power):
        out_path = tmp_path / "out.csv"
        argv = [str(out_path) if arg == "OUT" else arg for arg in self._argv(tmp_path, command)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--epsilon", "1", "--delta", "0.1", "--max-freq", "10",
                  f"--g-power={power}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--g-power: the exponent must be finite" in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("dist, flag, value", [
        ("zipf", "--freq-min", "5"), ("zipf", "--freq-max", "50"), ("zipf", "--input", "IN"),
        ("uniform", "--alpha", "2"), ("uniform", "--w-max", "50"), ("uniform", "--input", "IN"),
        ("file", "--n-keys", "50"), ("file", "--alpha", "2"), ("file", "--w-max", "50"),
        ("file", "--freq-min", "2"), ("file", "--freq-max", "50"),
    ])
    @pytest.mark.parametrize("command", [
        ["analyze", "sweep", *PRIV, "--grid", "0.5"],
        ["analyze", "nrmse", *PRIV, "--grid", "0.5"],
        ["analyze", "concordance", *PRIV, "--max-freq", "60", "--kendall"],
    ], ids=["sweep", "nrmse", "concordance"])
    def test_dist_flags_the_distribution_does_not_read(self, tmp_path, capsys, command, dist,
                                                        flag, value):
        out_path = tmp_path / "out.csv"
        extra = ["--input", "IN"] if dist == "file" else []
        argv = [*command, "--dist", dist, *extra, flag, value, "--out", str(out_path)]
        with pytest.raises(SystemExit) as exc:
            main(self._argv(tmp_path, argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} is meaningless with --dist {dist}" in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("command, methods", [
        ("sweep", "pws-keys,bogus"), ("sweep", ""), ("sweep", "pws-keys,pws-keys"),
        ("nrmse", "pws-freq-mle,bogus"), ("nrmse", ""), ("nrmse", "nonprivate,nonprivate"),
    ])
    def test_bad_methods_exit_two_before_the_histogram(self, tmp_path, capsys, command,
                                                       methods):
        # the histogram file does not exist, so reading it first would exit 1
        out_path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", command, *self.PRIV, "--grid", "0.5", "--dist", "file",
                  "--input", str(tmp_path / "missing.tsv"), "--methods", methods,
                  "--out", str(out_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--methods" in captured.err
        assert not out_path.exists()

    def test_unreadable_dist_file_is_a_data_error(self, tmp_path, capsys):
        code, out, err = run(["analyze", "sweep", *self.PRIV, "--grid", "0.5", "--dist", "file",
                              "--input", str(tmp_path / "missing.tsv")], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_tau_sweep_requires_delta(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "sweep", "--epsilon", "0.1", "--sweep", "tau", "--grid", "0.5",
                  "--dist", "uniform", "--n-keys", "50"])
        assert exc.value.code == 2
        assert "--sweep tau requires --delta" in capsys.readouterr().err

    def test_pdfs_table_out_is_gone(self, tmp_path, capsys):
        seg, atoms, table = tmp_path / "seg.csv", tmp_path / "atoms.csv", tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["pdfs", *self.PRIV, "--max-freq", "6", "--segments-out", str(seg),
                  "--atoms-out", str(atoms), "--table-out", str(table)])
        assert exc.value.code == 2
        assert not any(p.exists() for p in (seg, atoms, table))

    @pytest.mark.parametrize("argv, explicit", [
        # the benchmark spells out the sbh concordance defaults
        (["analyze", "concordance", *PRIV, "--method", "sbh", "--max-freq", "6"],
         ["--scheme", "none"]),
        (["baseline", "sbh", "--input", "IN", *PRIV, "--seed", "1"],
         ["--scheme", "none", "--power", "1"]),
        (["pi", *PRIV, "--scheme", "none", "--max-freq", "6"], ["--power", "1.0"]),
        (["sanitize", "--mode", "keys", "--input", "IN", *PRIV, "--max-freq", "6",
          "--seed", "1"], ["--table", "alg4"]),
    ])
    def test_explicit_default_is_accepted(self, tmp_path, capsys, argv, explicit):
        outputs = []
        for extra in ([], explicit):
            out_path = tmp_path / f"out{len(extra)}.csv"
            code, _, _ = run([*self._argv(tmp_path, argv), *extra, "--out", str(out_path)],
                             capsys)
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]


class TestBaselineCommand:
    def test_sbh_outputs_reals(self, tmp_path, capsys):
        hist = tmp_path / "h.tsv"
        with open(hist, "w") as fp:
            for i in range(200):
                fp.write(f"k{i}\t30\n")
        code, out, _ = run(
            ["baseline", "sbh", "--input", str(hist), "--epsilon", "1.0",
             "--delta", "0.1", "--seed", "6"],
            capsys,
        )
        assert code == 0
        for line in out.splitlines():
            key, value = line.split("\t")
            assert float(value) >= math.log(10.0) + 1.0


class TestAnalyzeCommands:
    def test_sweep_csv_shape(self, capsys):
        code, out, _ = run(
            ["analyze", "sweep", "--epsilon", "0.1", "--delta", "0.01",
             "--sweep", "tau", "--grid", "1.0,0.1", "--scheme", "ppswor",
             "--methods", "pws-keys,nonprivate", "--dist", "zipf",
             "--n-keys", "1000", "--alpha", "1.0", "--w-max", "100"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"pws-keys", "nonprivate"}
        assert all(r["metric"] == "reported_fraction" for r in rows)

    @pytest.mark.parametrize("argv, grid", [
        (["analyze", "sweep", "--delta", "0.05", "--sweep", "tau", "--scheme", "ppswor"],
         TAU_GRID_DEFAULT),
        (["analyze", "sweep", "--sweep", "delta", "--scheme", "none"], DELTA_GRID_DEFAULT),
        (["analyze", "nrmse", "--delta", "0.05"], TAU_GRID_DEFAULT),
    ], ids=["sweep-tau", "sweep-delta", "nrmse"])
    def test_default_grid(self, capsys, argv, grid):
        code, out, _ = run([*argv, "--epsilon", "0.5", "--dist", "uniform", "--n-keys", "50",
                            "--freq-max", "20"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        n_methods = len({r["method"] for r in rows})
        assert [float(r["value"]) for r in rows[::n_methods]] == list(grid)
        assert len(rows) == n_methods * len(grid)

    def test_sweep_at_tau_zero(self, capsys):
        # tau 0 samples no key: only sbh, which samples nothing, reports any
        code, out, _ = run(
            ["analyze", "sweep", "--epsilon", "0.5", "--delta", "0.05", "--sweep", "tau",
             "--scheme", "ppswor", "--grid", "0", "--dist", "uniform", "--n-keys", "50"],
            capsys,
        )
        assert code == 0
        result = {r["method"]: float(r["result"]) for r in csv.DictReader(io.StringIO(out))}
        assert result.keys() == {"pws-keys", "sbh", "sampled-sbh", "nonprivate"}
        assert result["pws-keys"] == result["sampled-sbh"] == result["nonprivate"] == 0.0
        assert result["sbh"] > 0.0

    def test_concordance_csv(self, capsys):
        code, out, _ = run(
            ["analyze", "concordance", "--epsilon", "0.5", "--delta", "0.05",
             "--max-freq", "6", "--method", "pws", "--scheme", "none"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 15  # all ordered pairs below 6
        assert all(0.0 <= float(r["concordance"]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("method", ["pws", "sbh"])
    def test_concordance_pairs_by_row(self, capsys, method):
        code, out, _ = run(
            ["analyze", "concordance", "--epsilon", "0.5", "--delta", "0.05",
             "--max-freq", "7", "--method", method],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        pairs = [(int(r["i1"]), int(r["i2"])) for r in rows]
        assert pairs == [(i1, i2) for i1 in range(2, 8) for i2 in range(1, i1)]
        if method == "sbh":
            config = SbhConfig(PrivacyParams(0.5, 0.05))
            for (i1, i2), r in zip(pairs, rows):
                assert float(r["concordance"]) == sbh_concordance_prob(config, i1, i2)

    @pytest.mark.parametrize("method", ["pws", "sbh"])
    def test_concordance_needs_a_positive_range(self, tmp_path, capsys, method):
        out_path = tmp_path / "conc.csv"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "concordance", "--epsilon", "0.5", "--delta", "0.05",
                  "--max-freq", "0", "--method", method, "--out", str(out_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-freq: max_frequency must be >= 1, got 0" in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("flags, status", [
        (["--method", "sbh", "--max-freq", "6"], 2),
        (["--method", "pws", "--max-freq", "6", "--freq-max", "7"], 1),
    ])
    def test_kendall_checks_run_before_any_output(self, tmp_path, capsys, flags, status):
        out_path = tmp_path / "conc.csv"
        argv = ["analyze", "concordance", "--epsilon", "0.5", "--delta", "0.05", "--scheme",
                "none", "--kendall", "--dist", "uniform", "--n-keys", "20", *flags,
                "--out", str(out_path)]
        if status == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            code, _, err = run(argv, capsys)
            assert code == 1
            assert "exceeds --max-freq" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("scheme", [
        ["--scheme", "none"],
        ["--scheme", "ppswor", "--tau", "0.1"],
    ])
    def test_tau_sweep_rejects_ignored_scheme_flags(self, capsys, scheme):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "sweep", "--epsilon", "0.1", "--delta", "0.01", "--sweep", "tau",
                  "--grid", "1.0,0.1", *scheme, "--dist", "uniform", "--n-keys", "50"])
        assert exc.value.code == 2
        assert "--sweep tau" in capsys.readouterr().err

    def test_moments_csv(self, capsys):
        code, out, _ = run(
            ["analyze", "moments", "--epsilon", "0.1", "--delta", "0.01",
             "--scheme", "none", "--max-freq", "30", "--estimator", "unbiased"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 30
        # unbiased estimator: expectation matches the frequency
        for r in rows[:5]:
            assert float(r["E_i"]) == pytest.approx(float(r["i"]), rel=1e-9)
            assert float(r["MSE_i"]) >= float(r["Bias_i"]) ** 2

    def test_unbiased_moments_need_alg4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "moments", "--epsilon", "0.1", "--delta", "0.01",
                  "--max-freq", "30", "--table", "alg5", "--estimator", "unbiased"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--estimator unbiased needs the integer-token table" in captured.err

    def test_nrmse_is_nan_where_undefined(self, capsys):
        # pps tau 0 keeps nothing: the baseline and the non-private estimate
        # are undefined there, and the sweep still writes every row
        code, out, _ = run(
            ["analyze", "nrmse", "--epsilon", "0.5", "--delta", "0.05", "--grid", "0,0.5",
             "--dist", "uniform", "--n-keys", "50", "--freq-max", "20"],
            capsys,
        )
        assert code == 0
        rows = {(float(r["value"]), r["method"]): float(r["result"])
                for r in csv.DictReader(io.StringIO(out))}
        assert len(rows) == 6
        assert math.isnan(rows[0.0, "sampled-sbh"])
        assert math.isnan(rows[0.0, "nonprivate"])
        assert not any(math.isnan(v) for (tau, _), v in rows.items() if tau == 0.5)

    def test_pdfs_export(self, tmp_path, capsys):
        seg, atoms = tmp_path / "seg.csv", tmp_path / "atoms.csv"
        code, _, _ = run(
            ["pdfs", "--epsilon", "0.5", "--delta", "0.05", "--scheme", "none",
             "--max-freq", "8", "--segments-out", str(seg),
             "--atoms-out", str(atoms)],
            capsys,
        )
        assert code == 0
        seg_rows = list(csv.DictReader(io.StringIO(seg.read_text())))
        atom_rows = list(csv.DictReader(io.StringIO(atoms.read_text())))
        assert len(atom_rows) == 9  # frequencies 0..8
        # per-frequency mass: atom + sum of density * width = 1
        for i in range(9):
            mass = float(atom_rows[i]["atom0"]) + sum(
                float(r["density"]) * (float(r["right"]) - float(r["left"]))
                for r in seg_rows
                if int(r["i"]) == i
            )
            assert mass == pytest.approx(1.0, abs=1e-12)
