"""End-to-end command-line behavior: exit codes, JSON reports, replay."""

import argparse
import errno
import functools
import hashlib
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from cubefam import SetFamily, full_power_set, write_family
from cubefam import cli
from cubefam.cli import main
from cubefam.concentration import hypergeometric_tail, verify_trace_probability
from cubefam.embeddings import find_pattern_via_universality
from cubefam.families import _BULK_BYTES, format_family, parse_subset_literal
from cubefam.posets import make_chain, verify_embedding_masks


@pytest.fixture
def fam_file(tmp_path):
    def _write(fam, name="family.txt"):
        path = tmp_path / name
        write_family(fam, path)
        return str(path)

    return _write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestLubell:
    def test_power_set_mass(self, capsys, fam_file):
        path = fam_file(full_power_set(2))
        code, payload = run_json(capsys, ["lubell", "--family", path])
        assert code == 0
        assert payload["results"]["mass"] == "3/1"
        assert payload["results"]["n"] == 2 and payload["results"]["size"] == 4
        assert payload["versions"]["cubefam"]
        assert payload["threads"] == 1
        assert "timings" not in payload

    def test_byte_determinism(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        argv = ["lubell", "--family", path]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_interval_mass(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code, payload = run_json(
            capsys, ["lubell", "--family", path, "--bottom", "-", "--top", "1,2"]
        )
        assert code == 0
        interval = payload["results"]["interval"]
        assert interval["relative_mass"] == "3/1"
        assert interval["top"] == "1,2" and interval["bottom"] == "-"

    def test_bottom_alone_reaches_the_full_ground_set(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code, payload = run_json(capsys, ["lubell", "--family", path, "--bottom", "1"])
        assert code == 0
        interval = payload["results"]["interval"]
        assert interval["bottom"] == "1" and interval["top"] == "1,2,3"
        assert interval["relative_mass"] == "3/1"

    def test_timings_flag(self, capsys, fam_file):
        path = fam_file(full_power_set(2))
        code, payload = run_json(capsys, ["--with-timings", "lubell", "--family", path])
        assert code == 0 and "wall_s" in payload["timings"]


class TestErrorExits:
    def test_malformed_family_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n=3\n2,1\n")
        assert main(["lubell", "--family", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,data,message", [
        (["lubell", "--family"], b"n=3\n1,2\n\xc3\xa9\n", "family file is not ascii text"),
        (["middle-layers", "--n", "3", "--pattern"], b"k=2\n0 < 1\n\xc3\xa9\n",
         "poset file is not ascii text"),
        (["report", "--config"], b'{"subcommand": "lubell", "params": {"family": "\xff"}}',
         "config file is not utf-8 text"),
    ], ids=["family", "poset", "config"])
    def test_undecodable_byte_exits_2(self, capsys, tmp_path, argv, data, message):
        path = tmp_path / "input"
        path.write_bytes(data)
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"parse error: {message}: byte ")
        assert captured.out == ""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("body,error", [
        (b"1\n4\n" + b"\n" * 20000 + b"\xff\n", "line 3: element 4 outside ground set [3]"),
        (b"1\n4\n\xff\n", "family file is not ascii text: byte 0xff (ordinal not in range(128))"),
        (b"1\n2\n1\n", "line 4: duplicate subset '1'"),
    ], ids=["bad-byte-past-first-block", "bad-byte-in-first-block", "duplicate"])
    def test_family_from_a_pipe_exits_2(self, capsys, tmp_path, body, error):
        """A pipe cannot be read again from its top, so it is streamed line
        by line: a malformed line is named when the text layer decodes it
        before the bad byte (its first 8 KiB block ends before the byte)."""
        path = tmp_path / "pipe"
        os.mkfifo(path)

        def write():
            fd = os.open(path, os.O_WRONLY)
            os.write(fd, b"n=3\n" + body)     # one write: all or none of it is read
            os.close(fd)

        writer = threading.Thread(target=write)
        writer.start()
        code = main(["lubell", "--family", str(path)])
        writer.join()
        captured = capsys.readouterr()
        assert (code, captured.err, captured.out) == (2, f"parse error: {error}\n", "")

    @pytest.mark.parametrize("flag,literal", [
        ("--top", "\u0661,1_0"), ("--top", "0_2"), ("--bottom", "\u0661"),
    ])
    def test_subset_flag_takes_ascii_digits_only(self, capsys, fam_file, flag, literal):
        path = fam_file(full_power_set(10))
        assert main(["lubell", "--family", path, flag, literal]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"parse error: bad subset literal {literal!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag,literal", [
        ("--bottom", ""), ("--bottom", " "), ("--top", ""), ("--top", " "),
    ])
    def test_blank_subset_flag_exits_2(self, capsys, fam_file, tmp_path, flag, literal):
        """A blank literal is a bad one, never the empty set "-", on the
        command line and in a replayed config."""
        path = fam_file(full_power_set(3))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"subcommand": "lubell", "params": {"family": path, flag[2:]: literal}}
        ))
        for argv in (["lubell", "--family", path, flag, literal],
                     ["report", "--config", str(cfg_path)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == "parse error: bad subset literal ''\n"
            assert captured.out == ""

    def test_missing_file_exits_2(self, capsys, tmp_path):
        path = str(tmp_path / "nope.txt")
        assert main(["lubell", "--family", path]) == 2
        assert capsys.readouterr().err == (
            f"parse error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {path!r}\n"
        )

    @pytest.mark.parametrize("name,code", [
        (".", errno.EISDIR),
        ("file.txt/x", errno.ENOTDIR),
        ("x" * 300, errno.ENAMETOOLONG),
    ], ids=["directory", "through-a-file", "name-too-long"])
    def test_unopenable_path_exits_2(self, capsys, tmp_path, name, code):
        (tmp_path / "file.txt").write_text("n=1\n")
        path = os.path.normpath(tmp_path / name)
        assert main(["lubell", "--family", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"parse error: [Errno {code}] {os.strerror(code)}: {path!r}\n"
        assert captured.out == ""

    def test_randomized_without_seed_exits_3(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code = main(["embed", "--family", path, "--pattern", "builtin:V2"])
        assert code == 3
        assert "--seed or --ephemeral" in capsys.readouterr().err

    def test_override_requires_constants(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code = main([
            "extract", "--family", path, "--pattern", "builtin:P2",
            "--mode", "override", "--seed", "1",
        ])
        assert code == 3

    def test_paper_mode_forbids_constants(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code = main([
            "extract", "--family", path, "--pattern", "builtin:P2",
            "--q", "1/2", "--p", "1/2", "--seed", "1",
        ])
        assert code == 3

    def test_paper_mode_forbids_eps(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code = main([
            "extract", "--family", path, "--pattern", "builtin:P2",
            "--eps", "1/8", "--seed", "1",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            "precondition violated: constant overrides are only legal with --mode override\n"
        )


class TestFlagErrors:
    """Bad flag values end in an exit code and a message, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["cascade", "-m", "1", "--eps", "abc"],
        ["pivots", "--family", "{}", "--base", "1", "-r", "1", "--gamma", "1/0"],
        ["extract", "--family", "{}", "--pattern", "builtin:P2", "--mode", "override",
         "--q", "x", "--p", "1/2", "--seed", "1"],
        ["extract", "--family", "{}", "--pattern", "builtin:P2", "--mode", "override",
         "--q", "1/2", "--p", "1/2", "--eps", "1/0", "--seed", "1"],
        ["verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50", "--n", "100",
         "-t", "six", "--seed", "1"],
        ["verify-lemma", "--lemma", "fatbound", "--family", "{}", "--sset", "{}",
         "--eps", "e"],
    ])
    def test_bad_rational_exits_2(self, capsys, fam_file, argv):
        path = fam_file(full_power_set(3))
        assert main([a.format(path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert "not a rational number" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["verify-lemma", "--lemma", "trace", "--n", "40", "-m", "10", "-r", "1",
         "--eps", "1e-5000", "--trials", "10", "--seed", "1"],
        ["pivots", "--family", "{}", "--base", "1", "-r", "1", "--gamma", "1e-5000"],
        ["verify-lemma", "--lemma", "flexbound", "--family", "{}", "-r", "1",
         "--gamma", "1e-5000"],
        ["extract", "--family", "{}", "--pattern", "builtin:P2", "--mode", "override",
         "--q", "1e5000", "--p", "0", "--seed", "1"],
        ["verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50", "--n", "100",
         "-t", "1e5000", "--trials", "10", "--seed", "1"],
    ], ids=["trace", "pivots", "flexbound", "extract", "tail"])
    def test_rational_too_long_to_print_exits_2(self, capsys, fam_file, argv):
        """Python prints no integer of more than 4300 digits, so a report
        could not echo these rationals."""
        path = fam_file(full_power_set(3))
        assert main([a.format(path) for a in argv]) == 2
        captured = capsys.readouterr()
        value = "1e5000" if "1e5000" in argv else "1e-5000"
        assert captured.err == f"parse error: rational {value!r} has too many digits to print\n"
        assert captured.out == ""

    def test_derived_rational_too_long_to_print_exits_3(self, capsys, monkeypatch):
        """eps 1e-3000 prints, but a cascade level below it has more than
        4300 digits; so has a level below eps 1/2 at m = 4.  The levels are
        checked before the m* search behind the mass bounds, which takes
        about a minute at the first and 20 s at the second, so here it
        raises if it is called."""
        from cubefam import concentration

        def no_search(e, k):
            raise AssertionError("the m* search ran")

        monkeypatch.setattr(concentration, "_level_threshold", no_search)
        for argv, near in ((["-m", "2", "--eps", "1e-3000"], "1e-6001"),
                           (["-m", "4", "--eps", "1/2"], "1e-6575")):
            assert main(["cascade", *argv]) == 3
            captured = capsys.readouterr()
            assert captured.err == (
                f"precondition violated: a derived rational near {near} has too many digits"
                " to print\n"
            )
            assert captured.out == ""

    def test_tolerance_out_of_range_named_by_magnitude(self, capsys):
        """-1e-3000 prints, but the message names its magnitude rather
        than a 3001-digit denominator."""
        assert main(["cascade", "-m", "2", "--eps=-1e-3000"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "precondition violated: tolerance must be in (0, 1], got a rational near -1e-3000\n"
        )
        assert captured.out == ""

    def test_rational_flag_echoed_as_typed(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code, payload = run_json(capsys, [
            "pivots", "--family", path, "--base", "1", "-r", "1", "--gamma", "2/4",
        ])
        assert code == 0
        assert payload["config"]["params"]["gamma"] == "2/4"
        assert payload["results"]["gamma"] == "1/2"

    @pytest.mark.parametrize("lemma_args,flag", [
        (["--lemma", "tail", "-m", "20", "-k", "50", "--n", "100"], "-t"),
        (["--lemma", "trace", "-m", "12", "--n", "40", "--eps", "1/4"], "-r"),
    ])
    def test_missing_lemma_flag_exits_2(self, capsys, lemma_args, flag):
        assert main(["verify-lemma", *lemma_args, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.rstrip().endswith(f"needs {flag}")

    @pytest.mark.parametrize("argv", [
        ["embed", "--pattern", "builtin:V2", "--mode", "induced"],
        ["extract", "--pattern", "builtin:P2", "--mode", "override",
         "--q", "1/2", "--p", "1/2"],
    ])
    def test_zero_attempts_exits_3(self, capsys, fam_file, argv):
        path = fam_file(full_power_set(4))
        code = main([*argv, "--family", path, "--attempts", "0", "--seed", "1"])
        assert code == 3
        assert "need at least one attempt" in capsys.readouterr().err

    def test_extremal_ground_cap_exits_3(self, capsys):
        code = main([
            "extremal", "--n", "17", "--pattern", "builtin:P2", "--budget-nodes", "10",
        ])
        assert code == 3
        assert "ground size must be in [0, 16]" in capsys.readouterr().err

    def test_negative_budget_exits_3(self, capsys):
        code = main([
            "extremal", "--n", "3", "--pattern", "builtin:P2", "--budget-nodes", "-1",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "node budget must be nonnegative" in captured.err


class TestPivots:
    def test_middle_layer_enumeration(self, capsys, fam_file):
        fam = SetFamily(4, [m for m in range(16) if bin(m).count("1") == 2])
        path = fam_file(fam)
        code, payload = run_json(capsys, [
            "pivots", "--family", path, "--base", "1,2", "-r", "1",
            "--gamma", "1/2",
        ])
        assert code == 0
        res = payload["results"]
        assert res["count"] == 2
        assert res["flexible"] is True


class TestEmbed:
    def test_absent_on_antichain(self, capsys, fam_file):
        fam = SetFamily(4, [m for m in range(16) if bin(m).count("1") == 2])
        path = fam_file(fam)
        code, payload = run_json(capsys, [
            "embed", "--family", path, "--pattern", "builtin:P2",
            "--mode", "weak", "--seed", "0",
        ])
        assert code == 0
        assert payload["results"]["status"] == "absent"
        assert payload["results"]["map"] is None

    def test_induced_v_found_and_certified(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code, payload = run_json(capsys, [
            "embed", "--family", path, "--pattern", "builtin:V2", "--seed", "0",
        ])
        assert code == 0
        res = payload["results"]
        assert res["status"] == "found"
        assert res["attempts_used"] == 0          # oracle route, no sampling
        assert len(res["map"]["images"]) == 3
        assert any(c["object"] == "embedding" for c in payload["certifications"])

    def test_budget_stop_reports_unknown(self, capsys, fam_file, monkeypatch):
        members = [
            sum(1 << e for e in c)
            for r in (5, 6) for c in itertools.combinations(range(10), r)
        ]
        path = fam_file(SetFamily(10, members))
        monkeypatch.setattr(
            "cubefam.embeddings.find_pattern_via_universality",
            functools.partial(find_pattern_via_universality, node_budget=10),
        )
        code, payload = run_json(capsys, [
            "embed", "--family", path, "--pattern", "builtin:V2", "--seed", "0",
        ])
        assert code == 4
        res = payload["results"]
        assert res["status"] == "unknown" and res["map"] is None
        assert payload["certifications"] == []

    def test_weak_budget_stop_reports_unknown(self, capsys, fam_file, monkeypatch):
        """The weak route has a node budget too: a stop is "unknown" (exit
        4), where the full search finds no P2 among the 5-subsets of [10]."""
        members = [sum(1 << e for e in c) for c in itertools.combinations(range(10), 5)]
        argv = ["embed", "--family", fam_file(SetFamily(10, members)),
                "--pattern", "builtin:P2", "--mode", "weak", "--seed", "0"]
        code, payload = run_json(capsys, argv)
        assert code == 0 and payload["results"]["status"] == "absent"
        monkeypatch.setattr("cubefam.posets.DEFAULT_ORACLE_BUDGET", 10, raising=False)
        code, payload = run_json(capsys, argv)
        assert code == 4
        res = payload["results"]
        assert res["status"] == "unknown" and res["map"] is None
        assert payload["certifications"] == []

    def test_corrupt_composed_map_exits_5(self, capsys, fam_file, monkeypatch):
        """A map that fails its certificate is an exit 5 with the check's
        message, and no report."""
        monkeypatch.setattr("cubefam.embeddings.downset_embedding", lambda p: (1,) * p.k)
        path = fam_file(full_power_set(8))
        assert main(["embed", "--family", path, "--pattern", "builtin:V2", "--seed", "4"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "certification failure: composed map failed the induced check\n"

    def test_weak_map_found_and_certified(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code, payload = run_json(capsys, [
            "embed", "--family", path, "--pattern", "builtin:P3",
            "--mode", "weak", "--seed", "0",
        ])
        assert code == 0
        res = payload["results"]
        assert res["status"] == "found" and res["attempts_used"] == 0
        emb = res["map"]
        assert (emb["kind"], emb["mode"], emb["target_n"]) == ("masks", "weak", 3)
        images = [parse_subset_literal(text, 3) for text in emb["images"]]
        assert verify_embedding_masks(make_chain(3), images, "weak")
        assert payload["certifications"] == [
            {"object": "embedding", "check": "order-preserving pairwise", "passed": True},
        ]

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits_exits_3(self, capsys, fam_file, seed):
        path = fam_file(full_power_set(3))
        code = main(["embed", "--family", path, "--pattern", "builtin:P2", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "precondition violated: seed must fit in 64 bits\n"

    def test_ephemeral_allows_randomness(self, capsys, fam_file):
        path = fam_file(full_power_set(3))
        code, payload = run_json(capsys, [
            "embed", "--family", path, "--pattern", "builtin:P2", "--ephemeral",
        ])
        assert code == 0 and payload["results"]["status"] == "found"


class TestExtract:
    def test_paper_mode_honest_stop(self, capsys, fam_file):
        path = fam_file(full_power_set(8))
        code, payload = run_json(capsys, [
            "extract", "--family", path, "--pattern", "builtin:P2", "--seed", "5",
        ])
        assert code == 0
        res = payload["results"]
        assert res["status"] == "insufficient mass"
        assert res["map"] is None
        assert res["mode"] == "paper"

    def test_override_single_element_completes(self, capsys, fam_file, tmp_path):
        """A 1-element pattern on the full 10-cube: two halving steps,
        then a certified one-image map."""
        path = fam_file(full_power_set(10))
        pattern = tmp_path / "one.poset"
        pattern.write_text("k=1\n")
        code, payload = run_json(capsys, [
            "extract", "--family", path, "--pattern", str(pattern),
            "--mode", "override", "--q", "1/2", "--p", "1/2",
            "--eps", "1/8", "--seed", "3",
        ])
        assert code == 0
        res = payload["results"]
        assert res["status"] == "ok" and len(res["trace"]["steps"]) == 2
        emb = res["map"]
        assert (emb["kind"], emb["mode"], emb["target_n"]) == ("masks", "induced", 10)
        assert len(emb["images"]) == 1
        assert payload["certifications"] and all(c["passed"] for c in payload["certifications"])


    ARGS = ["--pattern", "builtin:P2", "--mode", "override", "--q", "1/2", "--p", "1/2",
            "--seed", "3"]

    def test_override_stops_before_the_first_step(self, capsys, fam_file):
        """P2 needs 4 points in X, and no branch can leave more than
        12 >> 3 = 1: the report has no steps and says why."""
        path = fam_file(full_power_set(12))
        code, payload = run_json(capsys, ["extract", "--family", path, *self.ARGS])
        assert code == 0
        res = payload["results"]
        assert res["status"] == "X too small" and res["map"] is None
        trace = res["trace"]
        assert (trace["status"], trace["steps"], trace["t"], trace["branch"]) == (
            "X too small", [], -1, None,
        )
        assert trace["initial_mass"] == "13/1"
        assert trace["warnings"] == [
            "initial mass below the configured threshold",
            "every completed branch has |X| <= n >> (m+1) = 1 < 2m = 4",
        ]
        assert payload["certifications"] == []

    def test_malformed_family_still_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n=12\n1,2\n2,1\n")
        assert main(["extract", "--family", str(bad), *self.ARGS]) == 2
        assert capsys.readouterr().err.startswith("parse error:")


class TestExtractOutcomes:
    """Override runs at m = 1 (a one-element poset file) and eps 3/4, above
    the cube tolerance 1/4, so the density check before cube location can
    fail; seeds pinned."""

    ARGS = ["--mode", "override", "--q", "1/2", "--p", "1/2", "--eps", "3/4"]

    def run(self, capsys, fam_file, tmp_path, fam, *extra):
        pattern = tmp_path / "one.poset"
        pattern.write_text("k=1\n")
        return run_json(capsys, [
            "extract", "--family", fam_file(fam), "--pattern", str(pattern),
            *self.ARGS, *extra,
        ])

    def test_map_emitted_with_cube_and_certificates(self, capsys, fam_file, tmp_path):
        code, payload = self.run(capsys, fam_file, tmp_path, full_power_set(12), "--seed", "0")
        assert code == 0
        res = payload["results"]
        assert res["status"] == "ok" and res["trace"]["branch"] is not None
        assert res["cube"]["status"] == "ok" and res["cube"]["attempts_used"] >= 1
        emb = res["map"]
        assert (emb["kind"], emb["mode"], emb["target_n"]) == ("masks", "induced", 12)
        assert len(emb["images"]) == 1
        assert [c["object"] for c in payload["certifications"]] == [
            "trace", "witnesses", "embedding",
        ]
        assert all(c["passed"] for c in payload["certifications"])

    def test_not_dense_enough(self, capsys, fam_file, tmp_path):
        rng = random.Random(10)
        fam = SetFamily(12, [m for m in range(1 << 12) if rng.random() >= 0.5])
        code, payload = self.run(capsys, fam_file, tmp_path, fam, "--seed", "0")
        assert code == 0
        res = payload["results"]
        assert res["status"] == "not dense enough"
        assert res["map"] is None and "cube" not in res
        assert payload["certifications"] == []

    def test_embed_exhausted_exits_4(self, capsys, fam_file, tmp_path):
        code, payload = self.run(
            capsys, fam_file, tmp_path, full_power_set(12), "--attempts", "1", "--seed", "15",
        )
        assert code == 4
        res = payload["results"]
        assert res["status"] == "embed exhausted" and res["map"] is None
        assert res["cube"] == {"status": "exhausted", "attempts_used": 1}
        assert payload["certifications"] == []


class TestExtremal:
    def test_sperner_value(self, capsys):
        code, payload = run_json(capsys, [
            "extremal", "--n", "4", "--pattern", "builtin:P2",
        ])
        assert code == 0
        res = payload["results"]
        assert res["value"] == 6 and res["exact"] is True
        assert len(res["family"]) == 6

    def test_budget_exit_4(self, capsys):
        code, payload = run_json(capsys, [
            "extremal", "--n", "5", "--pattern", "builtin:P2",
            "--budget-nodes", "3",
        ])
        assert code == 4
        assert payload["results"]["exact"] is False

    def test_with_timings_adds_wall_time(self, capsys):
        argv = ["extremal", "--n", "3", "--pattern", "builtin:P2"]
        code, payload = run_json(capsys, argv)
        assert code == 0 and "wall_time" not in payload["results"]
        assert payload["results"]["csv_rows"][0][3] == ""
        code, payload = run_json(capsys, ["--with-timings", *argv])
        res = payload["results"]
        assert code == 0 and float(res["wall_time"]) > 0
        assert res["csv_rows"][0][3] == repr(round(float(res["wall_time"]), 6))

    def test_csv_format(self, capsys):
        code = main([
            "--format", "csv", "extremal", "--n", "3", "--pattern", "builtin:P2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,value,nodes,time"
        assert lines[1].startswith("3,3,")


class TestExtremalGolden:
    """sha256 of the default report of benchmark-shaped queries, and the exit code."""

    @pytest.mark.parametrize(
        "args,code,digest",
        [
            (["13", "--pattern", "builtin:P2"], 0,
             "7d6d777cc32c67f0b818fa4658084415ee18396790d2b622e4cea4aee18f1d37"),
            (["4", "--pattern", "builtin:V2", "--mode", "weak"], 0,
             "12f845b398d21e9c0974cbd7b1e3104faf89fb961f80b2ee0bd3b9b0be1b82f2"),
            (["4", "--pattern", "builtin:V2", "--mode", "induced"], 0,
             "1eeb143022f314599a53eb5775befba5e5ae3a6fac8842d8ca7bf236bf2dc7b7"),
            (["4", "--pattern", "builtin:D2", "--mode", "weak"], 0,
             "60e69a71cc737d1b5658543ec70893b0e38256b2db8cd9deacb88780ce291fb4"),
            (["4", "--pattern", "builtin:D2", "--mode", "induced"], 0,
             "dd62853c46fdbd5665b55a8c5310141381dd07b41b977554c736c8f3ef1bb470"),
            (["4", "--pattern", "builtin:Q2", "--mode", "weak"], 0,
             "40813cb0610408e5e8b466e7f85105fc9f7419e40ea64a91a547d8f5def16fbe"),
            (["4", "--pattern", "builtin:Q2", "--mode", "induced"], 0,
             "382ab6777e0bce6d7f8161759e581e5cd6c6911eb1d98417339571fc20517ec6"),
            (["5", "--pattern", "builtin:Q2", "--mode", "induced", "--budget-nodes", "2000"], 4,
             "eaf5bd31d6db0f3389e8ee1a40c0620298fda35e2a164a5efec90b298a4a7427"),
        ],
        ids=["P2-13", "V2-weak", "V2-induced", "D2-weak", "D2-induced", "Q2-weak",
             "Q2-induced", "Q2-induced-5-budget"],
    )
    def test_report_digest(self, capsys, args, code, digest):
        assert main(["extremal", "--n", *args]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _layers(n, keep):
    return SetFamily(n, [m for m in range(1 << n) if keep(bin(m).count("1"))])


class TestCopyReportGolden:
    """sha256 of the default ``embed`` and ``extract`` report on each copy
    route and outcome, and the exit code.  Files are written under relative
    names in a scratch working directory, so the echoed paths are fixed."""

    EXTRACT = ["--pattern", "one.poset", "--mode", "override", "--q", "1/2", "--p", "1/2",
               "--eps", "3/4"]

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = random.Random(10)
        fams = {
            "p3": full_power_set(3),
            "low8": _layers(8, lambda s: s <= 3),
            "high8": _layers(8, lambda s: s >= 5),
            "anti4": _layers(4, lambda s: s == 2),
            "mid10": _layers(10, lambda s: s in (5, 6)),
            "p12": full_power_set(12),
            "half12": SetFamily(12, [m for m in range(1 << 12) if rng.random() >= 0.5]),
        }
        for name, fam in fams.items():
            write_family(fam, f"{name}.txt")
        Path("one.poset").write_text("k=1\n")

    @pytest.mark.parametrize(
        "argv,code,digest",
        [
            (["p3.txt", "--pattern", "builtin:P3", "--mode", "weak", "--seed", "0"], 0,
             "f93a27892170552fe348c5361245333ba1d9b97e4b67d1e3c8a5896c40281cae"),
            (["low8.txt", "--pattern", "builtin:V2", "--seed", "7"], 0,
             "fa23eb2d98f730ae423cac472a029d2289ff1bea206d91190822b3d63c1818b7"),
            (["high8.txt", "--pattern", "builtin:V2", "--seed", "7"], 0,
             "1865c7c2f1ca8b07fcf0383aaff861cab3da2a0f74f5c37187e1d04f1cbb2631"),
            (["p3.txt", "--pattern", "builtin:V2", "--seed", "0"], 0,
             "8e271740ffd61f338d28ee90e068f5df2f843f4d4001b0e430b6836566653dbb"),
            (["anti4.txt", "--pattern", "builtin:P2", "--seed", "0"], 0,
             "c6d3e42cf871df6bd643de7bd445fa7bb0d1be4db784139410af6580c5dd9343"),
        ],
        ids=["weak-found", "induced-cube", "induced-co-small", "induced-oracle",
             "induced-absent"],
    )
    def test_embed_digest(self, capsys, argv, code, digest):
        assert main(["embed", "--family", *argv]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_embed_budget_stop_digest(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "cubefam.embeddings.find_pattern_via_universality",
            functools.partial(find_pattern_via_universality, node_budget=10),
        )
        argv = ["embed", "--family", "mid10.txt", "--pattern", "builtin:V2", "--seed", "0"]
        assert main(argv) == 4
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "a1e93b267690da117129daa1c32a6a0b4df0ba5844eab12876dce939724059b5")

    @pytest.mark.parametrize(
        "argv,code,digest",
        [
            (["p12.txt", "--seed", "0"], 0,
             "6dfbb32cf3dfc773a794747a095179153cc76783593134b4a9329d6abea13f86"),
            (["half12.txt", "--seed", "0"], 0,
             "e77851b117ef31e0c249dc5980451ca24de44e30039e9b046f7ae5dc1c9e690a"),
            (["p12.txt", "--attempts", "1", "--seed", "15"], 4,
             "49406cd7a2b66564364434684132ee37f85fd260d43b9df49f42535090cfdeb7"),
        ],
        ids=["map-emitted", "not-dense-enough", "embed-exhausted"],
    )
    def test_extract_digest(self, capsys, argv, code, digest):
        assert main(["extract", "--family", argv[0], *self.EXTRACT, *argv[1:]]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestVerifyLemma:
    def test_tail_small_run(self, capsys):
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50",
            "--n", "100", "-t", "6", "--trials", "2000", "--seed", "11",
        ])
        assert code == 0
        assert payload["results"]["verdict"] in ("pass", "inconclusive")

    @pytest.mark.parametrize("lemma_args", [
        ["--lemma", "tail", "-m", "20", "-k", "50", "--n", "100", "-t", "6"],
        ["--lemma", "trace", "-m", "12", "--n", "40", "-r", "1", "--eps", "1/4"],
    ])
    def test_zero_trials_is_inconclusive(self, capsys, lemma_args):
        code, payload = run_json(capsys, [
            "verify-lemma", *lemma_args, "--trials", "0", "--seed", "1",
        ])
        assert code == 0
        assert payload["results"]["verdict"] == "inconclusive"
        assert payload["results"]["trials"] == 0

    @pytest.mark.parametrize("lemma_args", [
        ["--lemma", "tail", "-m", "5", "-k", "-3", "--n", "10", "-t", "1"],
        ["--lemma", "tail", "-m", "5", "-k", "50", "--n", "10", "-t", "1"],
        ["--lemma", "tail", "-m", "12", "-k", "5", "--n", "10", "-t", "1",
         "--trials", "0"],
        ["--lemma", "tail", "-m", "20", "-k", "50", "--n", "100", "-t", "6",
         "--trials", "-5"],
        ["--lemma", "trace", "-m", "12", "--n", "40", "-r", "1", "--eps", "1/4",
         "--trials", "-5"],
        ["--lemma", "trace", "-m", "12", "--n", "-5", "-r", "1", "--eps", "1/4",
         "--trials", "10"],
    ])
    def test_ill_posed_parameters_exit_3(self, capsys, lemma_args):
        code = main(["verify-lemma", *lemma_args, "--seed", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize("trials", ["0", "10"])
    def test_trace_member_outside_ground_exits_3(self, capsys, fam_file, trials):
        path = fam_file(SetFamily(20, [1 << 19]), "tset.txt")
        code = main([
            "verify-lemma", "--lemma", "trace", "--n", "10", "-m", "5", "-r", "1",
            "--eps", "1/2", "--tset", path, "--trials", trials, "--seed", "1",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    def test_deep_trace_hypothesis_fails_well_under_a_second(self, capsys):
        import time

        start = time.perf_counter()
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "trace", "--n", "5000", "-m", "2000",
            "-r", "1100", "--eps", "1/2", "--trials", "0", "--seed", "1",
        ])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert payload["results"]["verdict"] == "hypothesis-failed"

    def test_deep_trace_at_the_m0_floor_makes_one_search(self, capsys, monkeypatch):
        """m = n = floor(1/c) + 2 is the least m whose hypothesis check
        reaches m0; at r = 1100 that is 2^3300 + 2, a 994-digit integer.
        m0 costs the top level's one m* search, not one per level."""
        from cubefam import concentration

        search = concentration._level_threshold
        search.cache_clear()
        levels = []

        def counting(e, k):
            levels.append(k)
            return search(e, k)

        monkeypatch.setattr(concentration, "_level_threshold", counting)
        size = str(2**3300 + 2)
        assert len(size) == 994
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "trace", "--n", size, "-m", size,
            "-r", "1100", "--eps", "1/2", "--trials", "0", "--seed", "1",
        ])
        assert code == 0
        assert payload["results"]["verdict"] == "hypothesis-failed"
        assert levels == [1100]

    def test_tail_offset_squaring_past_binary64_bounds_at_zero(self, capsys):
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50", "--n", "100",
            "-t", "1e200", "--trials", "100", "--seed", "1",
        ])
        assert code == 0
        res = payload["results"]
        assert float(res["bound"]) == 0.0 and res["drawn"] == 0 and res["verdict"] == "pass"

    def test_tail_offset_beyond_binary64_exits_3(self, capsys):
        code = main([
            "verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50", "--n", "100",
            "-t", "1e400", "--trials", "100", "--seed", "1",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("precondition violated:")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_tail_reports_its_exact_probability(self, capsys):
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50", "--n", "100",
            "-t", "6", "--trials", "2000", "--seed", "11",
        ])
        res = payload["results"]
        assert code == 0 and res["verdict"] == "pass"
        assert (res["exact_p"], res["exact_holds"]) == ("87654517/34785102294", True)

    def test_tail_probability_past_the_print_limit_is_printed_in_full(self, capsys):
        """At (m, k, n) = (10^4, 10^4, 2 * 10^4) both parts of p have about
        4966 digits, more than ``str`` prints: the report spells them out."""
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "tail", "-m", "10000", "-k", "10000",
            "--n", "20000", "-t", "50", "--trials", "2000", "--seed", "3",
        ])
        res = payload["results"]
        assert code == 0 and res["verdict"] == "pass" and res["exact_holds"] is True
        num, den = res["exact_p"].split("/")
        assert min(len(num), len(den)) > sys.get_int_max_str_digits()
        p = hypergeometric_tail(10000, 10000, 20000, 5050)
        assert (int(Decimal(num)), int(Decimal(den))) == (p.numerator, p.denominator)

    def test_tail_draw_past_numpy_limit_exits_3(self, capsys):
        code = main([
            "verify-lemma", "--lemma", "tail", "-m", "5", "-k", "1000000000",
            "--n", "1500000000", "-t", "1", "--trials", "100", "--seed", "1",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            "precondition violated: a tail draw needs k and n - k below 1000000000, "
            "got k=1000000000, n - k=500000000\n"
        )

    def test_tail_needs_seed(self, capsys):
        code = main([
            "verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50",
            "--n", "100", "-t", "6", "--trials", "100",
        ])
        assert code == 3

    def test_trace_reads_tset(self, capsys, fam_file):
        tset = {1 << i for i in range(5)}
        path = fam_file(SetFamily(40, tset), "tset.txt")
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "trace", "--n", "40", "-m", "10", "-r", "1",
            "--eps", "1/4", "--tset", path, "--trials", "2000", "--seed", "11",
        ])
        assert code == 0
        res = payload["results"]
        rep = verify_trace_probability(40, 10, 1, Fraction(1, 4), tset, 2000, 11)
        assert res["params"]["T_size"] == 5
        assert res["empirical"] == repr(rep.empirical) and rep.hits > 0
        assert res["verdict"] == rep.verdict == "pass"
        assert res == {
            "bound": "0.7316156289466418", "drawn": 2000, "empirical": "0.098",
            "exact_holds": True, "exact_p": "816/9139",
            "lemma": "trace", "margin": "0.029725307431958246",
            "params": {"T_size": 5, "eps": "1/4", "m": 10, "n": 40, "r": 1},
            "seed": 11, "trials": 2000, "verdict": "pass",
        }

    def test_impossible_trace_draws_nothing(self, capsys, fam_file):
        """Two singletons cannot put the needed 3 members of T in X (more
        than eps * C(10, 1) = 2.5): the report covers the 2000 trials asked
        for, with no row drawn."""
        path = fam_file(SetFamily(40, {1, 2}), "tset.txt")
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "trace", "--n", "40", "-m", "10", "-r", "1",
            "--eps", "1/4", "--tset", path, "--trials", "2000", "--seed", "11",
        ])
        assert code == 0
        res = payload["results"]
        assert res["trials"] == 2000 and res["drawn"] == 0
        assert res["empirical"] == "0.0" and res["verdict"] == "pass"

    def test_flexbound_pass(self, capsys, fam_file):
        # A lone member has no swap partners, hence no pivots at all.
        path = fam_file(SetFamily(4, [0b0001]))
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "flexbound", "--family", path,
            "--gamma", "1/2", "-r", "1",
        ])
        assert code == 0
        assert payload["results"]["verdict"] == "pass"

    def test_flexbound_flexible_family_fails_hypothesis(self, capsys, fam_file):
        # {1} and {2} witness each other's single swap.
        path = fam_file(SetFamily(4, [0b0001, 0b0010]))
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "flexbound", "--family", path,
            "--gamma", "1/2", "-r", "1",
        ])
        assert code == 0
        assert payload["results"]["verdict"] == "hypothesis-failed"

    def test_fatbound_runs(self, capsys, fam_file, tmp_path):
        fam_path = fam_file(SetFamily(8, [1 << 7]), "fam.txt")
        sset_path = fam_file(SetFamily(8, [1 << i for i in range(7)]), "sset.txt")
        code, payload = run_json(capsys, [
            "verify-lemma", "--lemma", "fatbound", "--family", fam_path,
            "--sset", sset_path, "--eps", "1/2",
        ])
        assert code == 0
        assert payload["results"]["verdict"] == "pass"


class TestCascade:
    def test_m1_exact_levels(self, capsys):
        code, payload = run_json(capsys, ["cascade", "-m", "1", "--eps", "1/4"])
        assert code == 0
        res = payload["results"]
        assert res["eps_levels"] == ["1/4", "1/8", "1/16"]
        assert res["p"] == "33/1"
        assert res["q"].startswith("129.5006")
        assert res["threshold"].startswith("8200.036")


class TestReportReplay:
    def test_replay_round_trip(self, capsys, fam_file, tmp_path):
        path = fam_file(full_power_set(2))
        code, payload = run_json(capsys, ["lubell", "--family", path])
        assert code == 0
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(payload))
        code, replay = run_json(capsys, ["report", "--config", str(cfg_path)])
        assert code == 0
        assert replay["results"]["replayed"] == "lubell"
        assert replay["results"]["results"]["mass"] == "3/1"

    def test_nested_report_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"config": {"subcommand": "report", "params": {"config": str(cfg_path)}}}
        ))
        assert main(["report", "--config", str(cfg_path)]) == 3

    def test_invalid_json_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{not json")
        assert main(["report", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("config,message", [
        ({"subcommand": "bogus", "params": {}}, "unknown subcommand 'bogus'"),
        ({"subcommand": "lubell", "params": {}}, "lubell config needs --family"),
        ([{"subcommand": "lubell"}], "config must be a JSON object"),
        ({"subcommand": "embed", "seed": "x",
          "params": {"family": "f.txt", "pattern": "builtin:P2", "mode": "induced"}},
         "seed must be an integer"),
        ({"params": {"family": "f.txt"}}, "config file missing key: 'subcommand'"),
        ({"subcommand": "lubell", "params": {"family": "f.txt", "bottm": "1"}},
         "lubell config has no flag for param 'bottm'"),
        ({"subcommand": "lubell", "params": {"family": "f.txt", "help": True}},
         "lubell config has no flag for param 'help'"),
        ({"subcommand": "embed", "seed": 1,
          "params": {"family": "f.txt", "pattern": "builtin:P2", "mode": "induced",
                     "seed": 5, "ephemeral": True}},
         "--seed belongs at the config's top level, not in params"),
    ], ids=["unknown-subcommand", "missing-flag", "json-list", "string-seed",
            "missing-subcommand", "misspelt-param", "help-param", "seed-in-params"])
    def test_bad_config_is_parse_error(self, capsys, tmp_path, config, message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["report", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error:") and message in captured.err
        assert captured.out == ""

    EMBED = {"family": "f.txt", "pattern": "builtin:P2", "mode": "induced"}

    @pytest.mark.parametrize("key,value,message", [
        ("ephemeral", "false", "ephemeral must be a boolean, got 'false'"),
        ("ephemeral", None, "ephemeral must be a boolean, got None"),
        ("with_timings", "no", "with_timings must be a boolean, got 'no'"),
        ("format", "xml", "format must be one of json, csv, got 'xml'"),
        ("output", 5, "output must be a string, got 5"),
    ], ids=["string-ephemeral", "null-ephemeral", "string-timings", "unknown-format",
            "number-output"])
    def test_bad_top_level_key_is_parse_error(self, capsys, tmp_path, key, value, message):
        """The global and seed keys are type-checked, never coerced: a
        string "false" is not a false."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"subcommand": "embed", "seed": 1, key: value, "params": self.EMBED}
        ))
        assert main(["report", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"parse error: {message}\n" and captured.out == ""

    def test_ephemeral_config_replays(self, capsys, fam_file, tmp_path):
        path = fam_file(full_power_set(3))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "subcommand": "embed", "ephemeral": True, "output": None,
            "params": {**self.EMBED, "family": path},
        }))
        code, payload = run_json(capsys, ["report", "--config", str(cfg_path)])
        assert code == 0 and payload["results"]["replayed"] == "embed"
        assert payload["results"]["results"]["status"] == "found"


class TestCsvFormat:
    """CSV holds one table, and only extremal reports one."""

    @pytest.mark.parametrize("argv", [
        ["lubell", "--family", "FAMILY"],
        ["pivots", "--family", "FAMILY", "--base", "1", "-r", "1"],
        ["middle-layers", "--n", "3", "--pattern", "builtin:P2"],
        ["cascade", "-m", "1", "--eps", "1/4"],
    ], ids=lambda argv: argv[0])
    def test_no_table_is_parse_error(self, capsys, fam_file, argv):
        path = fam_file(full_power_set(2))
        code = main(["--format", "csv", *[path if a == "FAMILY" else a for a in argv]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("parse error:") and f" {argv[0]} has no table" in captured.err

    def test_report_replay_is_parse_error(self, capsys, tmp_path):
        code, payload = run_json(capsys, ["extremal", "--n", "3", "--pattern", "builtin:P2"])
        assert code == 0
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["--format", "csv", "report", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and " report has no table" in captured.err


class TestOutputHandling:
    def test_output_file(self, capsys, fam_file, tmp_path):
        path = fam_file(full_power_set(2))
        dest = tmp_path / "report.json"
        code = main(["--output", str(dest), "lubell", "--family", path])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(dest.read_text())
        assert payload["results"]["mass"] == "3/1"

    @pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
    def test_unwritable_output_exits_2(self, capsys, fam_file, tmp_path, where):
        path = fam_file(full_power_set(2))
        code = main(["--output", str(tmp_path / where), "lubell", "--family", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("output error: cannot write the report:")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestBuiltinPatterns:
    @pytest.mark.parametrize("name,k", [
        ("builtin:P2", 2), ("builtin:P3", 3), ("builtin:P4", 4),
        ("builtin:V2", 3), ("builtin:D2", 3), ("builtin:Q2", 4),
    ])
    def test_middle_layers_accepts_all(self, capsys, name, k):
        code, payload = run_json(capsys, [
            "middle-layers", "--n", "4", "--pattern", name,
        ])
        assert code == 0
        assert payload["results"]["middle_layers"] >= 0

    def test_unknown_builtin_is_parse_error(self, capsys):
        assert main(["middle-layers", "--n", "4", "--pattern", "builtin:Z9"]) == 2


class TestLazyImports:
    """numpy, mpmath and each cubefam layer load only in the subcommands
    that compute with them."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    HEAVY = ("numpy", "mpmath")

    def modules_after(self, argv):
        """Run main(argv) in a fresh interpreter (only ``import cubefam``
        when argv is None); every module loaded by then."""
        script = (
            "import json, sys\n"
            "import cubefam\n"
            "argv = json.loads(sys.argv[1])\n"
            "if argv is None:\n"
            "    code = 0\n"
            "else:\n"
            "    from cubefam.cli import main\n"
            "    code = main(argv)\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)],
            capture_output=True, text=True, env=env, check=True,
        )
        code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert code == 0, proc.stderr
        return loaded

    def loaded_after(self, argv):
        """The heavy modules main(argv) loaded in a fresh interpreter."""
        return [m for m in self.HEAVY if m in self.modules_after(argv)]

    def layers_after(self, argv):
        """The cubefam modules main(argv) loaded in a fresh interpreter."""
        return [m.split(".", 1)[1] for m in self.modules_after(argv)
                if m.startswith("cubefam.")]

    @pytest.mark.parametrize("argv", [
        ["extremal", "--n", "4", "--pattern", "builtin:V2", "--mode", "induced"],
        ["middle-layers", "--n", "4", "--pattern", "builtin:V2"],
        ["lubell", "--family", "FAMILY"],
        ["pivots", "--family", "FAMILY", "--base", "1,2", "-r", "1", "--gamma", "1/2"],
        ["embed", "--family", "FAMILY", "--pattern", "builtin:P2",
         "--mode", "weak", "--seed", "0"],
    ], ids=lambda argv: argv[0])
    def test_exact_subcommands_load_neither(self, fam_file, argv):
        path = fam_file(SetFamily(4, [m for m in range(16) if bin(m).count("1") == 2]))
        assert self.loaded_after([path if a == "FAMILY" else a for a in argv]) == []

    def test_plain_argv_loads_no_argparse(self, fam_file):
        """argparse is imported only to build the fallback parser."""
        path = fam_file(full_power_set(2))
        assert "argparse" not in self.modules_after(["lubell", "--family", path])
        assert "argparse" in self.modules_after(["lubell", "--fam", path])

    def test_monte_carlo_loads_numpy(self):
        """The control: the harness does see an import when one happens."""
        loaded = self.loaded_after([
            "verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50",
            "--n", "100", "-t", "6", "--trials", "100", "--seed", "1",
        ])
        assert "numpy" in loaded

    def test_decided_tail_loads_mpmath_only(self):
        """p = 0 decides every draw (z_min 27 is above m = 20): the exact
        verdict needs mpmath, and nothing is drawn."""
        loaded = self.loaded_after([
            "verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50",
            "--n", "100", "-t", "17", "--trials", "100", "--seed", "1",
        ])
        assert loaded == ["mpmath"]

    def test_impossible_trace_loads_mpmath_only(self, fam_file):
        """A trace query whose event cannot happen decides it without drawing
        rows, so numpy stays unloaded; mpmath still gives the bound and m0."""
        path = fam_file(SetFamily(40, {1, 2}), "tset.txt")
        loaded = self.loaded_after([
            "verify-lemma", "--lemma", "trace", "--n", "40", "-m", "10", "-r", "1",
            "--eps", "1/4", "--tset", path, "--trials", "100", "--seed", "1",
        ])
        assert loaded == ["mpmath"]

    @pytest.mark.parametrize("argv,layers", [
        (None, ["errors"]),
        (["lubell", "--family", "FAMILY"], ["cli", "errors", "families"]),
        (["pivots", "--family", "FAMILY", "--base", "1,2", "-r", "1", "--gamma", "1/2"],
         ["cli", "concentration", "errors", "families", "pivots"]),
        (["embed", "--family", "FAMILY", "--pattern", "builtin:P2",
          "--mode", "weak", "--seed", "0"],
         ["cli", "errors", "families", "posets"]),
        (["extremal", "--n", "4", "--pattern", "builtin:V2", "--mode", "induced"],
         ["cli", "errors", "extremal", "families", "posets"]),
        (["middle-layers", "--n", "4", "--pattern", "builtin:V2"],
         ["cli", "errors", "extremal", "families", "posets"]),
        (["verify-lemma", "--lemma", "tail", "-m", "20", "-k", "50",
          "--n", "100", "-t", "6", "--trials", "100", "--seed", "1"],
         ["cli", "concentration", "errors", "families"]),
        (["extract", "--family", "FAMILY", "--pattern", "builtin:P2", "--mode", "override",
          "--q", "1/2", "--p", "1/2", "--seed", "0"],
         ["cli", "concentration", "embeddings", "errors", "extraction", "families",
          "pivots", "posets"]),
    ], ids=["import-only", "lubell", "pivots", "weak-embed", "extremal", "middle-layers",
            "tail", "extract-override"])
    def test_subcommands_load_only_their_layers(self, fam_file, argv, layers):
        """``import cubefam`` loads ``errors`` alone, and each subcommand the
        layers its handler calls into; ``extract --mode override`` is the
        control that loads nearly all of them."""
        if argv is not None:
            path = fam_file(SetFamily(4, [m for m in range(16) if m.bit_count() == 2]))
            argv = [path if a == "FAMILY" else a for a in argv]
        assert self.layers_after(argv) == layers

    @pytest.mark.parametrize("size,heavy", [
        (_BULK_BYTES - 1, []),
        (_BULK_BYTES, ["numpy"]),
    ], ids=["one-byte-under-the-gate", "at-the-gate"])
    def test_lubell_loads_numpy_from_the_bulk_gate(self, tmp_path, size, heavy):
        """read_family reads a file of ``_BULK_BYTES`` or more with numpy;
        one byte less keeps ``lubell`` free of both heavy modules."""
        head = format_family(SetFamily(4, [m for m in range(16) if m.bit_count() == 2]))
        path = tmp_path / "fam.txt"
        path.write_bytes((head + " " * (size - len(head) - 1) + "\n").encode("ascii"))
        assert path.stat().st_size == size
        assert self.loaded_after(["lubell", "--family", str(path)]) == heavy


SUBCOMMANDS = ["lubell", "pivots", "embed", "extract", "extremal", "middle-layers",
               "verify-lemma", "cascade", "report"]
P2_QUERY = ["extremal", "--n", "3", "--pattern", "builtin:P2"]


def parse_outcome(capsys, parser, argv):
    """What parsing ``argv`` gives: (namespace or None, exit code, stdout, stderr)."""
    try:
        found, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        found, code = None, exc.code
    captured = capsys.readouterr()
    return found, code, captured.out, captured.err


FULL_TREE = ["cubefam", *(f"cubefam {sub}" for sub in SUBCOMMANDS)]


def record_parsers(monkeypatch) -> list:
    """The prog of each ``ArgumentParser`` built from now on, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        built.append(parser.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    return built


class TestFrontDoor:
    """``main`` reads a plain argv from the flag table and builds the tree
    of all nine for any other; help, usage and errors are that tree's."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv,code,text", [
        pytest.param(argv, code, text, id=" ".join(argv) or "no-arguments")
        for argv, code, text in [
            (["--help"], 0, "{" + ",".join(SUBCOMMANDS) + "}"),
            (["-h", "extremal"], 0, "exact constants for a pattern size"),
            *[([sub, "--help"], 0, f"usage: cubefam {sub} [-h]") for sub in SUBCOMMANDS],
            (["bogus"], 2, "argument subcommand: invalid choice: 'bogus'"),
            ([], 2, "the following arguments are required: subcommand"),
            (["--format", "xml", *P2_QUERY], 2, "argument --format: invalid choice: 'xml'"),
            (["--output"], 2, "argument --output: expected one argument"),
            (["--bogus", *P2_QUERY], 2, "unrecognized arguments: --bogus"),
            ([*P2_QUERY, "--bogus"], 2, "unrecognized arguments: --bogus"),
            ([*P2_QUERY, "--format", "csv"], 2, "unrecognized arguments: --format csv"),
            (["extremal", "--n", "x", "--pattern", "builtin:P2"], 2,
             "argument --n: invalid int value: 'x'"),
            (["--=x", *P2_QUERY], 2, "ambiguous option: --=x could match"),
        ]
    ])
    def test_exits_as_the_full_tree(self, capsys, argv, code, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == code
        assert text in (captured.out if code == 0 else captured.err)
        assert parse_outcome(capsys, cli.build_parser(), argv) == (
            None, code, captured.out, captured.err)

    def test_unknown_subcommand_lists_all_nine(self, capsys):
        with pytest.raises(SystemExit):
            main(["bogus"])
        err = capsys.readouterr().err
        assert all(f"'{sub}'" in err.split("choose from", 1)[1] for sub in SUBCOMMANDS)

    def test_abbreviated_global_flags(self, capsys, fam_file, tmp_path):
        assert main(["--form", "csv", *P2_QUERY]) == 0
        assert capsys.readouterr().out.startswith("n,value,nodes,time\n3,3,")
        dest = tmp_path / "out.json"
        assert main(["--out", str(dest), "lubell", "--family", fam_file(full_power_set(2))]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text())["results"]["mass"] == "3/1"

    def test_builds_no_parser_if_plain_else_the_full_tree_afresh(self, capsys, monkeypatch):
        """A plain argv builds no parser; any other builds the full tree,
        afresh on each call."""
        built = record_parsers(monkeypatch)
        for _ in range(2):
            assert main(P2_QUERY) == 0
        assert built == []
        for _ in range(2):
            assert main([*P2_QUERY, "--obj", "lubell"]) == 0
        assert built == FULL_TREE * 2

    def test_reads_sys_argv_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cubefam", "--format", "csv", *P2_QUERY])
        assert main() == 0
        assert capsys.readouterr().out.startswith("n,value,nodes,time\n")


def _valid_text(spec: dict) -> str:
    return spec["choices"][0] if "choices" in spec else "1"


def _replay_cases() -> list:
    """(subcommand, flag, config value, argv tail) for each way a replayed
    config can break a flag, from the flag table: a value of the wrong
    type, a value outside the choices, a required flag left out (value
    None), and for the seed flags, which a config holds at its top level,
    any value in params.  The argv tail breaks the flag the same way on
    the command line; None where argparse has nothing to reject (every
    text is a str, and a seed flag is right on the command line)."""
    cases = []
    for sub, (_, _, flags) in cli._SUBCOMMANDS.items():
        if sub == "report":      # a replayed report is refused (exit 3) before its flags are read
            continue
        for flag, spec in flags:
            if spec.get("action") == "store_true":
                breaks = [("type", "yes", [f"{flag}=yes"])]
            elif spec.get("type") is int:
                breaks = [("type", "1", [flag, "x"])]
            else:
                breaks = [("type", 1, None)]
            if (flag, spec) in cli._SEED_FLAGS:
                valid = True if spec.get("action") == "store_true" else 1
                breaks.append(("params", valid, None))
            if "choices" in spec:
                breaks.append(("choice", "nope", [flag, "nope"]))
            if spec.get("required"):
                breaks.append(("missing", None, []))
            cases += [
                pytest.param(sub, flag, bad, tail, id=f"{sub} {flag} {kind}")
                for kind, bad, tail in breaks
            ]
    return cases


class TestReplayAgreesWithArgparse:
    """``report --config`` validates a config against the same flag table
    argparse is built from, so both refuse the same breakages (exit 2)."""

    @pytest.mark.parametrize("sub,flag,bad,tail", _replay_cases())
    def test_both_refuse(self, capsys, tmp_path, sub, flag, bad, tail):
        flags = dict(cli._SUBCOMMANDS[sub][2])
        spec = flags[flag]
        others = [
            arg for f, s in flags.items() if s.get("required") and f != flag
            for arg in (f, _valid_text(s))
        ]
        given = [flag, _valid_text(spec)] if spec.get("required") else []
        parser = cli.build_parser()
        params = cli._config_from_args(vars(parser.parse_args([sub, *others, *given]))).params
        cli._check_replayed_config(cli.RunConfig(sub, params, seed=1))  # the control passes
        # the key argparse stores the flag under: the one two values of it change
        if spec.get("action") == "store_true":
            values = ([], [flag])
        else:
            a, b = spec.get("choices", ("1", "2"))[:2]
            values = ([flag, a], [flag, b])
        one, two = (vars(parser.parse_args([sub, *others, *v])) for v in values)
        [dest] = [key for key in one if one[key] != two[key]]
        if bad is None:
            del params[dest]
        else:
            params[dest] = bad
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"subcommand": sub, "params": params, "seed": 1}))
        assert main(["report", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error:") and flag in captured.err
        assert captured.out == ""
        if tail is not None:
            with pytest.raises(SystemExit) as exc:
                main([sub, *others, *tail])
            assert exc.value.code == 2


def _parametrised_argvs() -> list:
    """Every argv, or argv tail, among this module's parametrised cases."""
    found = {}
    for obj in list(globals().values()):
        for test in vars(obj).values() if isinstance(obj, type) else (obj,):
            for mark in getattr(test, "pytestmark", ()):
                if mark.name != "parametrize":
                    continue
                for case in mark.args[1]:
                    case = getattr(case, "values", case)     # a pytest.param
                    for value in case if isinstance(case, tuple) else (case,):
                        if isinstance(value, list) and all(isinstance(a, str) for a in value):
                            found[tuple(value)] = list(value)
    return list(found.values())


@pytest.mark.parametrize("argv", _parametrised_argvs(), ids=" ".join)
def test_lazy_tree_parses_as_the_full_tree(capsys, monkeypatch, argv):
    """``main`` builds its parser lazily: none where the plain reader reads
    the argv, and the full tree for any other.  Each case as written and
    behind each subcommand name (``TestPlainArgv`` checks the outcomes)."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "run", refuse_run)
    built = record_parsers(monkeypatch)
    for variant in [argv, *([sub, *argv] for sub in SUBCOMMANDS)]:
        built.clear()
        main_outcome(capsys, variant)
        assert built == (FULL_TREE if cli._read_plain_argv(variant) is None else []), variant


def _flag_cases(flag: str, spec: dict) -> list:
    """(tokens, plain) for one flag of the table: the ways to write it that
    ``_read_plain_argv`` reads, and ways that it must leave to argparse."""
    if spec.get("action") == "store_true":
        cases = [([flag], True), ([flag, flag], False), ([f"{flag}=yes"], False)]
        return cases + ([([flag[:-1]], False)] if len(flag) > 3 else [])
    valid = _valid_text(spec)
    cases = [
        ([flag, valid], True),
        ([flag, valid, flag, valid], False),
        ([f"{flag}={valid}"], False),
        ([flag], False),
        ([flag, "-"], "type" not in spec and "choices" not in spec),
        ([flag, "-1"], False),
        ([f"{flag}=-1e-3000"], False),
        ([flag, ""], "type" not in spec and "choices" not in spec),
    ]
    if len(flag) > 3:
        cases.append(([flag[:-1], valid], False))
    if not flag.startswith("--"):
        cases.append(([flag + valid], False))
    if spec.get("type") is int:
        cases += [([flag, "٣"], True), ([flag, "x"], False)]
    if "choices" in spec:
        cases.append(([flag, "nope"], False))
    return cases


def _generated_argvs(sub: str) -> list:
    """(argv, plain) for ``sub``, from the flag table: every case of
    ``_flag_cases`` for each of its flags and each global flag, a missing
    required flag, help, a global flag after the subcommand, and stray
    tokens."""
    flags = cli._SUBCOMMANDS[sub][2]
    required = {flag: [flag, _valid_text(spec)] for flag, spec in flags if spec.get("required")}
    base = [token for pair in required.values() for token in pair]
    cases = [
        ([sub, *base], True),
        (base, False),
        (["-h", sub, *base], False),
        ([sub, "-h", *base], False),
        ([sub, *base, "--help"], False),
        ([sub, "--", *base], False),
        ([sub, *base, "extra"], False),
        ([sub, *base, sub], False),
        ([sub, *base, "--bogus"], False),
    ]
    for flag in required:
        cases.append(([sub, *(t for f, pair in required.items() if f != flag for t in pair)], False))
    for flag, spec in flags:
        rest = [t for f, pair in required.items() if f != flag for t in pair]
        cases += [([sub, *rest, *tokens], plain) for tokens, plain in _flag_cases(flag, spec)]
    for flag, spec in cli._GLOBAL_FLAGS:
        for tokens, plain in _flag_cases(flag, spec):
            cases += [([*tokens, sub, *base], plain), ([sub, *base, *tokens], False)]
    return cases


def typed_items(namespace: dict) -> list:
    return [(key, type(value), value) for key, value in namespace.items()]


def refuse_run(cfg):
    """Stands in for ``cli.run``: the whole config, in the message of an exit 2."""
    raise cli.ParseError(repr(cfg))


def main_outcome(capsys, argv):
    """``main``'s exit code, stdout and stderr for ``argv``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_reads_as_argparse(capsys, monkeypatch, full, argv) -> bool:
    """``_read_plain_argv(argv)`` is None or exactly ``vars`` of the
    namespace of ``full``, the tree of all nine, and ``main`` (its handlers replaced by one that
    prints the config it was given) exits and prints as it does with
    ``full`` alone; whether the reader read ``argv``."""
    read = cli._read_plain_argv(argv)
    if read is not None:
        found = parse_outcome(capsys, full, argv)
        assert found[1:] == (None, "", ""), argv
        assert typed_items(read) == typed_items(found[0]), argv
    monkeypatch.setattr(cli, "run", refuse_run)
    outcome = main_outcome(capsys, argv)
    with monkeypatch.context() as full_tree:
        full_tree.setattr(cli, "_read_plain_argv", lambda argv: None)
        full_tree.setattr(cli, "build_parser", lambda: full)
        assert main_outcome(capsys, argv) == outcome, argv
    return read is not None


class TestPlainArgv:
    """``main`` reads a plain argv straight from the flag table, into the
    dict of the namespace argparse returns for it, and leaves every other
    to argparse."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_generated_corpus(self, capsys, monkeypatch, sub):
        full = cli.build_parser()
        for argv, plain in _generated_argvs(sub):
            assert assert_reads_as_argparse(capsys, monkeypatch, full, argv) == plain, argv

    @pytest.mark.parametrize("argv", _parametrised_argvs(), ids=" ".join)
    def test_parametrised_corpus(self, capsys, monkeypatch, argv):
        """Each argv of this module's parametrised cases, as written and
        behind each subcommand name."""
        full = cli.build_parser()
        for variant in [argv, *([sub, *argv] for sub in SUBCOMMANDS)]:
            assert_reads_as_argparse(capsys, monkeypatch, full, variant)

    def test_readme_examples_are_plain(self):
        """Each ``cubefam`` line of the README's example block, continuation
        lines joined, reads without argparse."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```sh\ncubefam ", 1)[1].split("```", 1)[0]
        for line in ("cubefam " + block).replace("\\\n", " ").splitlines():
            program, *argv = shlex.split(line)
            assert program == "cubefam" and cli._read_plain_argv(argv) is not None, line

    def test_reads_every_flag_of_a_full_query(self):
        argv = ["--output", "out.json", "--with-timings", "embed", "--mode", "weak",
                "--pattern", "builtin:V2", "--family", "f.txt", "--attempts", "٣",
                "--ephemeral", "--seed", "7"]
        assert list(cli._read_plain_argv(argv).items()) == [
            ("output", "out.json"), ("fmt", "json"), ("with_timings", True),
            ("subcommand", "embed"), ("family", "f.txt"), ("pattern", "builtin:V2"),
            ("mode", "weak"), ("attempts", 3), ("seed", 7), ("ephemeral", True),
        ]
