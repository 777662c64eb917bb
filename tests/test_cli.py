import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import negabench
from negabench import cli
from negabench.cli import main
from negabench.constructions import construct, spec_from_dict
from negabench.core import BitVector, BooleanFunction, max_n
from negabench.spectra import nega_transform, walsh_transform


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GEN_ARGS = ["gen", "--family", "G4K", "--k", "2", "--gamma", "0001"]


def _record_text(**fields) -> str:
    """A function file's JSON text with every key, `fields` overriding."""
    return json.dumps({"n": 8, "family": "G4K", "params": {}, "tt_hex": "", "anf": "",
                       "dual_tt_hex": "", "predicts_max_degree": False, **fields})


def _with_record(tmp_path, argv: list[str]) -> list[str]:
    """argv, with the text after --in written to a file and replaced by its path."""
    if "--in" not in argv:
        return argv
    record = tmp_path / "record.json"
    record.write_text(argv[-1])
    return [*argv[:-1], str(record)]


class TestGen:
    def test_writes_valid_record(self, capsys, tmp_path):
        out = tmp_path / "f.json"
        code, _, _ = run(capsys, *GEN_ARGS, "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n"] == 8
        assert data["family"] == "G4K"
        fn = BooleanFunction.from_hex(8, data["tt_hex"])
        rebuilt = construct("G4K", spec_from_dict("G4K", data["params"]))
        assert fn == rebuilt.function

    def test_byte_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, *GEN_ARGS, "--out", str(a))
        run(capsys, *GEN_ARGS, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, *GEN_ARGS)
        assert code == 0
        assert json.loads(out)["family"] == "G4K"


class TestVerify:
    def test_round_trip_passes(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        run(capsys, *GEN_ARGS, "--out", str(f))
        code, out, _ = run(capsys, "verify", "--in", str(f))
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_corrupted_table_fails_bent_check(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        run(capsys, *GEN_ARGS, "--out", str(f))
        data = json.loads(f.read_text())
        tt = list(data["tt_hex"])
        tt[0] = "0" if tt[0] != "0" else "1"
        data["tt_hex"] = "".join(tt)
        f.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--in", str(f))
        assert code == 1
        assert "FAIL bent" in out
        assert ": |W| " in out  # counterexample point printed

    def test_tampered_anf_field_detected(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        run(capsys, *GEN_ARGS, "--out", str(f))
        data = json.loads(f.read_text())
        data["anf"] = "x0"
        f.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--in", str(f))
        assert code == 1
        assert "FAIL file-anf-field-matches-closed-form" in out

    def test_one_flipped_point_is_named(self, capsys, tmp_path):
        # the frame check reads the base and set rebuilt from the params, so
        # it keeps their verdict; the involution check names the point
        f = tmp_path / "f.json"
        run(capsys, *GEN_ARGS, "--out", str(f))
        data = json.loads(f.read_text())
        x0 = 85
        fn = BooleanFunction.from_hex(8, data["tt_hex"]) ^ BooleanFunction(8, 1 << x0)
        data["tt_hex"] = fn.to_hex()
        f.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--in", str(f), "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["fragment-ratios-admissible"]["passed"]
        assert checks["dual-involution"]["counterexample"].startswith(f"at {BitVector(8, x0)}: ")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "G4K", "--k", "1",
                           "--gamma", "01", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert any(c["name"] == "bent" for c in report["checks"])

    def test_spec_flags_direct(self, capsys):
        code, _, _ = run(capsys, "verify", "--family", "F2RS_ORBIT", "--k", "2",
                         "--gamma", "1111")
        assert code == 0


class TestArtifactCommands:
    def test_spectrum_walsh_shape(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "G4K", "--k", "1",
                           "--gamma", "01", "--kind", "walsh")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 16
        assert all(len(line.split("\t")) == 2 for line in lines)

    def test_spectrum_both_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run(capsys, "spectrum", "--family", "H4K2", "--k", "1", "--gamma", "10",
            "--eset", "B", "--kind", "both", "--out", str(a))
        run(capsys, "spectrum", "--family", "H4K2", "--k", "1", "--gamma", "10",
            "--eset", "B", "--kind", "both", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        first = a.read_text().split("\n")[0].split("\t")
        assert len(first) == 4  # index, walsh, nega re, nega im

    def test_anf_matches_library(self, capsys):
        code, out, _ = run(capsys, "anf", "--family", "G4K", "--k", "1",
                           "--gamma", "00")
        assert code == 0
        cf = construct("G4K", spec_from_dict("G4K", {"k": 1, "gammas": ["00"]}))
        assert out.strip() == cf.closed_anf.to_text()

    def test_dual_matches_library(self, capsys):
        code, out, _ = run(capsys, "dual", "--family", "G4K", "--k", "1",
                           "--gamma", "01")
        cf = construct("G4K", spec_from_dict("G4K", {"k": 1, "gammas": ["01"]}))
        assert code == 0
        assert out.strip() == cf.closed_dual.to_hex()

    def test_orbits_listing(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "4")
        assert code == 0
        lines = [line.split("\t") for line in out.strip().split("\n")]
        assert [l[0] for l in lines] == ["0000", "1000", "1100", "1010", "1110", "1111"]
        assert [int(l[1]) for l in lines] == [1, 4, 4, 2, 4, 1]

    def test_spectrum_from_file(self, capsys, tmp_path):
        f = tmp_path / "f.json"
        run(capsys, *GEN_ARGS, "--out", str(f))
        code, out, _ = run(capsys, "spectrum", "--in", str(f), "--kind", "walsh")
        assert code == 0
        assert len(out.strip().split("\n")) == 256

    @pytest.mark.parametrize("argv", [
        GEN_ARGS,
        ["spectrum", "--family", "H4K2", "--k", "1", "--gamma", "10", "--eset", "B"],
        ["anf", "--family", "G4K", "--k", "2", "--gamma", "0001"],
        ["dual", "--family", "G4K", "--k", "2", "--gamma", "0001"],
        ["orbits", "--n", "6"],
    ])
    def test_out_file_equals_stdout(self, capsys, tmp_path, argv):
        dest = tmp_path / "out"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert run(capsys, *argv, "--out", str(dest)) == (0, "", "")
        assert dest.read_bytes() == out.encode("ascii")


def _reference_spectrum(fn, kind):
    """Reference for `spectrum`: every line built by str, format and join."""
    size = 1 << fn.n
    hex_of = f"{{:0{(fn.n + 3) // 4}x}}".format
    spectra = []
    if kind in ("walsh", "both"):
        spectra.append(walsh_transform(fn))
    if kind in ("nega", "both"):
        spectra.append(nega_transform(fn))
    columns = [map(str, c.tolist()) for s in spectra for c in s.parts(slice(0, size))]
    return "\n".join(map("\t".join, zip(map(hex_of, range(size)), *columns))) + "\n"


def _first_difference(got, want):
    """None, or the first line where two texts differ with both versions
    (pytest's own diff of two texts of 2^17 lines would take minutes)."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, pair in enumerate(zip(got_lines, want_lines)):
        if pair[0] != pair[1]:
            return i, *pair
    if len(got_lines) != len(want_lines):
        return "line count", len(got_lines), len(want_lines)
    return None


def _record(tmp_path, fn):
    """A function file holding `fn`; spectrum reads only n and tt_hex."""
    f = tmp_path / f"random-{fn.n}.json"
    f.write_text(_record_text(n=fn.n, tt_hex=fn.to_hex()))
    return f


class TestSpectrumText:
    # random, so the spectra are not flat; n = 1, 5, 13, 16, 17 give hex
    # widths 1, 2, 4, 4 (every digit used) and 5, and 2^17 lines cross a
    # block of 2^16
    @pytest.mark.parametrize("n", [1, 5, 13, 16, 17])
    def test_random_function_matches_reference(self, capsys, tmp_path, n):
        rng = np.random.default_rng(n)
        fn = BooleanFunction.from_values(n, rng.integers(0, 2, 1 << n))
        record = _record(tmp_path, fn)
        for kind in ("walsh", "nega", "both"):
            want = _reference_spectrum(fn, kind)
            code, out, _ = run(capsys, "spectrum", "--in", str(record), "--kind", kind)
            assert code == 0
            assert _first_difference(out, want) is None, kind
            dest = tmp_path / f"{kind}.tsv"
            assert run(capsys, "spectrum", "--in", str(record), "--kind", kind,
                       "--out", str(dest))[0] == 0
            assert _first_difference(dest.read_bytes().decode("ascii"), want) is None, kind

    # the widest rows: six hex digits in the last block at n = 24, and the
    # widest values, -16777216 among them; a column holding +-2^24 spans more
    # than its block, so its distinct values come from np.unique, the others
    # from the table over their span
    @pytest.mark.parametrize("n, start", [(24, (1 << 24) - (1 << 16)), (21, 0)])
    def test_widest_rows_match_reference(self, n, start):
        rng = np.random.default_rng(n)
        wide = [1 << 24, -(1 << 24), 1 << 12, -(1 << 12), 0, 1, -1]
        columns = [rng.choice(wide, 1 << 16).astype(np.int32), rng.choice(wide, 1 << 16),
                   rng.choice(wide[2:], 1 << 16), rng.choice(wide[2:], 1 << 16).astype(np.int32)]
        for col in columns:
            got, want = cli._distinct(col), np.unique(col, return_inverse=True)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        hex_of = f"{{:0{(n + 3) // 4}x}}".format
        want = "".join("\t".join([hex_of(start + i), *map(str, values)]) + "\n"
                       for i, values in enumerate(zip(*(c.tolist() for c in columns))))
        got = bytes(cli._spectrum_rows(n, start, columns)).decode("ascii")
        assert _first_difference(got, want) is None
        assert "-16777216" in got and got.startswith(hex_of(start))

    def test_flat_spectrum_over_several_blocks(self, capsys, tmp_path):
        # a bent-negabent record at n = 18: four blocks of flat columns
        record = tmp_path / "h4k2.json"
        argv = ["gen", "--family", "H4K2", "--k", "4", "--gamma", "11010010",
                "--gamma", "10011010", "--eset", "1", "--eset", "B", "--out", str(record)]
        assert run(capsys, *argv)[0] == 0
        fn = BooleanFunction.from_hex(18, json.loads(record.read_text())["tt_hex"])
        code, out, _ = run(capsys, "spectrum", "--in", str(record), "--kind", "both")
        assert code == 0
        assert _first_difference(out, _reference_spectrum(fn, "both")) is None

    def test_out_file_is_truncated(self, capsys, tmp_path):
        dest = tmp_path / "spectrum.tsv"
        dest.write_text("stale\n" * 10_000)
        argv = ["spectrum", "--family", "G4K", "--k", "1", "--gamma", "01"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out) < dest.stat().st_size
        assert run(capsys, *argv, "--out", str(dest))[0] == 0
        assert dest.read_text() == out


class TestSuiteCommands:
    def test_lemma_check(self, capsys):
        code, out, _ = run(capsys, "lemma-check", "--set", "S3", "--k", "1",
                           "--gamma", "01", "--eset", "B")
        assert code == 0
        assert "fragment-nega-closed-form" in out

    def test_lemma_check_rejects_t(self, capsys):
        code, _, err = run(capsys, "lemma-check", "--set", "T", "--k", "1",
                           "--gamma", "01")
        assert code == 4

    def test_table1(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert "relation table k=1: PASS" in out

    def test_su_check_prints_witnesses(self, capsys):
        code, out, _ = run(capsys, "su-check")
        assert code == 0
        assert "coset {1, 4, 11, 14}" in out
        assert "coset {1, 2, 13, 14}" in out
        assert "phi values [0, 1]" in out

    def test_repro_examples(self, capsys):
        code, out, _ = run(capsys, "repro-examples")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert all(line.startswith("PASS") for line in lines)

    def test_repro_examples_json(self, capsys):
        code, out, _ = run(capsys, "repro-examples", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["reports"]) == 3


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2
        assert run(capsys, "gen", "--family")[0] == 2

    def test_capacity_error(self, capsys):
        gamma = "0" * 16
        code, _, err = run(capsys, "gen", "--family", "G8K", "--k", "4",
                           "--gamma", gamma)
        assert code == 3
        assert "exceeds" in err

    def test_spec_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "G4K", "--k", "1",
                           "--gamma", "111")
        assert code == 4

    # one per family kind: gammas (with E sets for S3/S4), p, a_set, gamma
    @pytest.mark.parametrize("argv, flag", [
        (["--family", "G4K", "--k", "1", "--gamma", "01", "--p", "01"], "--p"),
        (["--family", "H4K2", "--k", "1", "--gamma", "10", "--eset", "B", "--a-set", "01"],
         "--a-set"),
        (["--family", "F2RS", "--k", "1", "--p", "01", "--eset", "B"], "--eset"),
        (["--family", "F2RS_SET", "--k", "1", "--a-set", "01", "--gamma", "01"], "--gamma"),
        (["--family", "F2RS_ORBIT", "--k", "2", "--gamma", "1111", "--a-set", "01"], "--a-set"),
    ])
    def test_unread_spec_flag_refused(self, capsys, tmp_path, argv, flag):
        out = tmp_path / "f.json"
        for command in (["gen", "--out", str(out)], ["verify"], ["spectrum"]):
            code, printed, err = run(capsys, *command, *argv)
            assert (code, printed) == (4, "")
            assert err == f"error: {argv[1]} does not read {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "spectrum", "anf", "dual"])
    @pytest.mark.parametrize("flag, value", [
        ("--family", "G4K"), ("--k", "1"), ("--gamma", "01"), ("--eset", "B"), ("--p", "01"),
        ("--a-set", "01"),
    ])
    def test_spec_flag_beside_in_refused(self, capsys, tmp_path, command, flag, value):
        # the record is the whole spec; the refusal comes before the file is read
        f = tmp_path / "f.json"
        assert run(capsys, *GEN_ARGS, "--out", str(f))[0] == 0
        for path in (f, tmp_path / "absent.json"):
            code, out, err = run(capsys, command, "--in", str(path), flag, value)
            assert (code, out) == (4, "")
            assert err == f"error: --in is the whole spec; drop {flag}\n"

    @pytest.mark.parametrize("argv, key, value", [
        (GEN_ARGS[1:], "p", ["01"]),
        (["--family", "H8K2", "--k", "1", "--gamma", "0000", "--eset", "0"], "a_set", ["01"]),
        (["--family", "F2RS", "--k", "1", "--p", "01"], "esets", ["B"]),
        (["--family", "F2RS_SET", "--k", "1", "--a-set", "01"], "gammas", ["01"]),
        (["--family", "F2RS_ORBIT", "--k", "2", "--gamma", "1111"], "gammas", ["1111"]),
    ])
    def test_unread_params_key_in_record(self, capsys, tmp_path, argv, key, value):
        f = tmp_path / "f.json"
        assert run(capsys, "gen", *argv, "--out", str(f))[0] == 0
        data = json.loads(f.read_text())
        data["params"][key] = value
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--in", str(f))
        assert (code, out) == (5, "")
        assert err.endswith(f"{data['family']} does not read {key}\n")

    @pytest.mark.parametrize("gamma", [["1111"], 11, {"1111": 1}])
    def test_single_orbit_gamma_is_one_string(self, capsys, tmp_path, gamma):
        f = tmp_path / "f.json"
        run(capsys, "gen", "--family", "F2RS_ORBIT", "--k", "2", "--gamma", "1111", "--out", str(f))
        data = json.loads(f.read_text())
        data["params"]["gamma"] = gamma
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--in", str(f))
        assert (code, out) == (5, "")
        assert err.endswith(" gamma must be one bit string\n")

    @pytest.mark.parametrize("family, k, key, good, bad, message", [
        ("F2RS_SET", "2", "a_set", ["1000"], ["1100", "0110"],
         "two vectors lie in the same cyclic orbit"),
        ("F2RS_ORBIT", "1", "gamma", ["11"], ["10"],
         "single-orbit form needs wt(gamma) >= 2 (lower weights break flatness)"),
    ])
    def test_rotation_params_refused_in_record(self, capsys, tmp_path, family, k, key, good,
                                               bad, message):
        # construct refuses these params: in a record they exit 5 with its
        # path, and as flags to gen they exit 4
        flag = "--" + key.replace("_", "-")
        f = tmp_path / "f.json"
        argv = ["gen", "--family", family, "--k", k]
        assert run(capsys, *argv, *(a for g in good for a in (flag, g)), "--out", str(f))[0] == 0
        data = json.loads(f.read_text())
        data["params"][key] = bad if key == "a_set" else bad[0]
        f.write_text(json.dumps(data))
        assert run(capsys, "verify", "--in", str(f)) == (5, "", f"error: {f}: {message}\n")
        assert run(capsys, *argv, *(a for g in bad for a in (flag, g))) == (
            4, "", f"error: {message}\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--in", str(tmp_path / "absent.json"))
        assert code == 5

    def test_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        assert run(capsys, "verify", "--in", str(f))[0] == 5

    @pytest.mark.parametrize("command", ["verify", "dual", "spectrum"])
    def test_deeply_nested_json(self, capsys, tmp_path, command):
        # the parser's RecursionError is a malformed file, not a traceback
        f = tmp_path / "nested.json"
        f.write_text("[" * 100_000)
        code, out, err = run(capsys, command, "--in", str(f))
        assert (code, out) == (5, "")
        assert err.startswith(f"error: {f} is not valid JSON: ")

    def test_missing_keys(self, capsys, tmp_path):
        f = tmp_path / "partial.json"
        f.write_text(json.dumps({"n": 4, "family": "G4K"}))
        assert run(capsys, "verify", "--in", str(f))[0] == 5

    @pytest.mark.parametrize("field, value", [
        ("tt_hex", 123),
        ("params", {"k": None}),
        ("params", {"k": 2, "gammas": [1]}),
        ("params", {"k": 2, "gammas": ["0001"], "esets": 5}),
    ])
    def test_malformed_fields(self, capsys, tmp_path, field, value):
        f = tmp_path / "f.json"
        run(capsys, *GEN_ARGS, "--out", str(f))
        data = json.loads(f.read_text())
        data[field] = value
        f.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--in", str(f))
        assert code == 5
        assert err.startswith("error: ")

    @pytest.mark.parametrize("field, value", [
        ("n", 8.0), ("n", 8.9), ("n", "8"), ("n", True),
        ("k", 2.0), ("k", 1.7), ("k", "2"), ("k", True),
        ("predicts_max_degree", "no"), ("predicts_max_degree", "false"),
        ("predicts_max_degree", [0]), ("predicts_max_degree", 0),
        ("predicts_max_degree", None),
        ("anf", 3), ("anf", None), ("dual_tt_hex", None), ("dual_tt_hex", ["0"]),
    ])
    def test_fields_are_read_without_coercion(self, capsys, tmp_path, field, value):
        # n and params.k are JSON integers and the flag a JSON bool; nothing
        # is coerced, so "no" is not read as true nor 8.9 as 8
        f = tmp_path / "f.json"
        run(capsys, *GEN_ARGS, "--out", str(f))
        data = json.loads(f.read_text())
        (data["params"] if field == "k" else data)[field] = value
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--in", str(f))
        assert (code, out) == (5, "")
        assert err.startswith("error: ") and field in err
        if field == "n":
            for command in ("spectrum", "anf", "dual"):
                code, _, err = run(capsys, command, "--in", str(f))
                assert code == 5 and "field n" in err

    @pytest.mark.parametrize("argv", [
        GEN_ARGS,
        ["spectrum", "--family", "G4K", "--k", "1", "--gamma", "01"],
        ["anf", "--family", "G4K", "--k", "1", "--gamma", "01"],
        ["dual", "--family", "G4K", "--k", "1", "--gamma", "01"],
        ["orbits", "--n", "4"],
    ])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, argv, where):
        out = tmp_path / "absent" / "x" if where == "missing" else tmp_path
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 5
        assert err.startswith("error: ") and str(out) in err
        assert stdout == ""

    @pytest.mark.parametrize("argv, want", [
        (["--max-n", "8", "gen", "--family", "G4K", "--k", "3", "--gamma", "000111"], 3),
        (["gen", "--family", "G4K", "--k", "2", "--gamma", "000"], 4),
        *(([command, "--in", text], 5) for command in ("anf", "dual", "spectrum")
          for text in ("{not json", _record_text(tt_hex="xyz"))),
        (["dual", "--in", _record_text(n=4, tt_hex="0000")], 1),  # main's one NotBentError arm
        (["gen", "--family", "F2RS_ORBIT", "--k", "1", "--gamma", "11", "--gamma", "01"], 4),
        (["gen", "--family", "F2RS", "--k", "2", "--p", "0101", "--p", "0101"], 4),
        (["gen", "--family", "F2RS", "--k", "2", "--p", "01"], 4),
        (["gen", "--family", "G4K", "--k", "0", "--gamma", "01"], 4),
        (["orbits", "--n", "0"], 4),
    ])
    def test_refused_command_writes_nothing(self, capsys, tmp_path, argv, want):
        # main opens --out only once the handler has done its work, so a
        # refused command leaves no file behind and prints nothing
        dest = tmp_path / "out"
        code, out, err = run(capsys, *_with_record(tmp_path, argv), "--out", str(dest))
        assert (code, out) == (want, "") and err.startswith("error: ")
        assert not dest.exists()

    @pytest.mark.parametrize("argv, want, says", [
        (["verify", "--k", "1", "--gamma", "01"], 4, "--family is required without --in"),
        (["verify", "--family", "G4K", "--gamma", "01"], 4, "--k is required without --in"),
        (["lemma-check", "--set", "S5", "--k", "1", "--gamma", "01"], 4,
         "unknown set family 'S5'"),
        (["lemma-check", "--set", "S1", "--k", "0", "--gamma", "01"], 4,
         "k must be a positive integer"),
        (["verify", "--in", "[]"], 5, "expected a JSON object"),
        (["verify", "--in", _record_text(params=[1])], 5, "params must be an object"),
        (["verify", "--in", _record_text(params={"gammas": ["01"]})], 5, "params need a k entry"),
    ])
    def test_refused_command_prints_only_its_error(self, capsys, tmp_path, argv, want, says):
        code, out, err = run(capsys, *_with_record(tmp_path, argv))
        assert (code, out) == (want, "") and err.startswith("error: ") and says in err

    @pytest.mark.parametrize("n", [30, 10 ** 8])
    def test_over_capacity_file(self, capsys, tmp_path, n):
        f = tmp_path / "f.json"
        run(capsys, *GEN_ARGS, "--out", str(f))
        data = json.loads(f.read_text())
        data["n"] = n
        f.write_text(json.dumps(data))
        assert run(capsys, "verify", "--in", str(f))[0] == 3

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "G4K", "--k", "7", "--gamma", "0" * 14],
        ["lemma-check", "--set", "S1", "--k", "7", "--gamma", "0" * 14],
        # one per shape: pair-shaped on g0 (n = 32), and on h0 (n = 26) each way
        ["lemma-check", "--set", "S2", "--k", "4", "--gamma", "0" * 16],
        ["lemma-check", "--set", "S3", "--k", "6", "--gamma", "0" * 12, "--eset", "0"],
        ["lemma-check", "--set", "S4", "--k", "3", "--gamma", "0" * 12, "--eset", "0"],
        ["gen", "--family", "H8K2", "--k", "3", "--gamma", "0" * 12, "--eset", "0"],
        ["table1", "--k", "7"],
    ])
    def test_capacity_refused_before_allocation(self, capsys, argv):
        # a 28-variable table alone is 32 MiB; the refusal must come first
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 3
        assert peak < 1 << 20

    @pytest.mark.parametrize("value", ["0", "25", "-3", "many"])
    def test_max_n_range(self, capsys, value):
        code, _, err = run(capsys, "--max-n", value, "orbits", "--n", "2")
        assert code == 2
        assert "--max-n" in err

    def test_max_n_flag(self, capsys):
        code, _, err = run(capsys, "--max-n", "6", "gen", "--family", "G4K",
                           "--k", "2", "--gamma", "0001")
        assert code == 3

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv, want", [
        (["--max-n", "4", "orbits", "--n", "3"], 0),
        (["--max-n", "6", *GEN_ARGS], 3),
        (["--max-n", "4", "verify", "--in", "absent.json"], 5),
    ])
    def test_max_n_holds_for_one_call(self, capsys, tmp_path, monkeypatch, argv, want):
        # --max-n caps its own call only: the caller's cap is back afterwards
        monkeypatch.chdir(tmp_path)
        before = max_n()
        assert run(capsys, *argv)[0] == want
        assert max_n() == before
        assert construct("G4K", spec_from_dict("G4K", {"k": 2, "gammas": ["0001"]})).n == 8


class TestParserReuse:
    def test_calls_keep_their_own_lists_and_cap(self, capsys, tmp_path):
        # one parser serves every call: the --gamma and --eset lists of one
        # call do not leak into the next, and each call's --max-n is undone
        paths = [tmp_path / f"{i}.json" for i in range(3)]
        calls = [["--max-n", "10", "gen", "--family", "H4K2", "--k", "2",
                  "--gamma", "0001", "--eset", "B"],
                 ["--max-n", "12", "gen", "--family", "H4K2", "--k", "2",
                  "--gamma", "0011", "--gamma", "1000", "--eset", "0", "--eset", "1"],
                 ["gen", "--family", "G4K", "--k", "2", "--gamma", "0110"]]
        before = max_n()
        for argv, path in zip(calls, paths):
            assert run(capsys, *argv, "--out", str(path))[0] == 0
            assert max_n() == before
        assert [json.loads(path.read_text())["params"] for path in paths] == [
            {"esets": ["B"], "gammas": ["0001"], "k": 2},
            {"esets": ["0", "1"], "gammas": ["0011", "1000"], "k": 2},
            {"gammas": ["0110"], "k": 2},
        ]
        # and a call with no --gamma still finds an empty list
        code, _, err = run(capsys, "gen", "--family", "G4K", "--k", "2")
        assert code == 4 and "gamma set must be nonempty" in err


def _package_env():
    """The environment of a fresh interpreter that imports this negabench."""
    src = str(Path(negabench.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


class TestModuleEntryPoint:
    def test_import_builds_no_hex_table(self):
        # the spectrum's hex digit table is built on first use, never at import
        code = "import negabench.cli as c; print(c._low_hex_digits.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    @pytest.mark.parametrize("argv", [["orbits", "--n", "4"], ["--max-n", "25", "orbits", "--n", "2"]])
    def test_python_dash_m_matches_main(self, capsys, argv):
        # `python -m negabench` runs cli.main in a fresh interpreter and exits
        # with its code, printing what main prints
        proc = subprocess.run([sys.executable, "-m", "negabench", *argv], env=_package_env(),
                              capture_output=True, text=True, timeout=60)
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, out)
