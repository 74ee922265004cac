"""End-to-end tests for the command-line interface."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toricstab import lattice, polytope, sheafdata
from toricstab.cli import fan_to_dict, load_fan_file, main
from toricstab.fan import (
    construct_hirzebruch,
    construct_product,
    construct_proj_split,
    construct_projective_space,
)
from toricstab.testkit import build_case_fan, golden_suite


def write_fan(tmp_path, f, name="fan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(fan_to_dict(f)), encoding="utf-8")
    return str(path)


@pytest.fixture
def f2_path(tmp_path):
    return write_fan(tmp_path, construct_hirzebruch(2))


@pytest.fixture
def b5_path(tmp_path):
    return write_fan(tmp_path, construct_proj_split(1, (1, 0, 0)), "b5.json")


class TestAnalyze:
    def test_unstable_hirzebruch_report(self, f2_path, capsys):
        assert main(["analyze", f2_path, "--divisor", "1,1,3,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == [
            "fan", "divisor", "ample", "volumes", "mu_tx", "verdict",
            "certificate", "notes",
        ]
        assert report["divisor"] == ["1/1", "1/1", "3/1", "1/1"]
        assert report["ample"] is True
        assert report["volumes"] == ["2/1", "2/1", "2/1", "6/1"]
        assert report["mu_tx"] == "6/1"
        assert report["verdict"] == "unstable"
        cert = report["certificate"]
        assert cert["rank"] == 1
        assert cert["lambda_matrix"] == [[0, -1, 0, -1]]
        assert cert["subspace_basis"] == [[0, 1]]
        assert cert["slope"] == "8/1"
        assert report["notes"]

    def test_semistable_b5_report(self, b5_path, capsys):
        assert main(["analyze", b5_path, "--anticanonical"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "semistable"
        assert report["mu_tx"] == "128/1"
        assert report["volumes"] == ["8/1", "56/3", "56/3", "56/3", "32/3", "32/3"]
        assert report["certificate"]["rank"] == 3
        assert report["certificate"]["lambda_matrix"][0] == [-1, -1, -1, -1, 0, 0]

    def test_stable_p4_has_null_certificate(self, tmp_path, capsys):
        path = write_fan(tmp_path, construct_projective_space(4))
        assert main(["analyze", path, "--anticanonical"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "stable"
        assert report["certificate"] is None

    def test_output_is_byte_identical_across_runs(self, b5_path, capsys):
        main(["analyze", b5_path, "--anticanonical"])
        first = capsys.readouterr().out
        main(["analyze", b5_path, "--anticanonical"])
        assert capsys.readouterr().out == first

    def test_report_round_trips_through_json(self, f2_path, capsys):
        main(["analyze", f2_path, "--divisor", "1,1,3,1"])
        text = capsys.readouterr().out
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_out_file_gets_the_report(self, f2_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(
            ["analyze", f2_path, "--divisor", "1,1,3,1", "--out", str(out)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["verdict"] == "unstable"

    def test_rational_divisor_coefficients(self, f2_path, capsys):
        assert main(["analyze", f2_path, "--divisor", "1/2,1/2,3/2,1/2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["divisor"] == ["1/2", "1/2", "3/2", "1/2"]
        assert report["mu_tx"] == "3/1"

    def test_invalid_fan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dim": 2,
            "rays": [[1, 0], [0, 1], [-1, -1]],
            "max_cones": [[0, 1], [1, 2]],
        }))
        assert main(["analyze", str(bad), "--anticanonical"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid fan" in captured.err

    def test_fan_that_winds_twice_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "winding.json"
        bad.write_text(json.dumps({
            "dim": 2,
            "rays": [[1, 0], [0, 1], [-1, -2], [2, 3], [-1, -1], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
        }))
        assert main(["analyze", str(bad), "--anticanonical"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        pairs = ("(0, 1) and (2, 3)", "(0, 1) and (3, 4)", "(1, 2) and (3, 4)",
                 "(1, 2) and (4, 5)", "(2, 3) and (4, 5)", "(2, 3) and (0, 5)")
        assert captured.err == "error: invalid fan: invalid fan ({})\n".format(", ".join(
            f"BadIntersection: cones {p} intersect outside the face spanned by "
            "their common rays ()" for p in pairs
        ))

    def test_one_dual_basis_per_request(self, b5_path, count_calls, capsys):
        # B5's 8 cones are wall-connected: one Hermite reduction, 7 crossings.
        duals = count_calls(lattice, "dual_basis")
        assert main(["analyze", b5_path, "--anticanonical"]) == 0
        assert len(duals) == 1

    def test_certificate_only_for_non_stable_verdicts(self, tmp_path, b5_path, count_calls,
                                                      capsys):
        p4_path = write_fan(tmp_path, construct_projective_space(4), "p4.json")
        hermite = count_calls(lattice, "hermite_canonical")
        for path, verdict, calls in ((p4_path, "stable", 0), (b5_path, "semistable", 1)):
            hermite.clear()
            assert main(["analyze", path, "--anticanonical"]) == 0
            assert json.loads(capsys.readouterr().out)["verdict"] == verdict
            assert len(hermite) == calls

    def test_non_ample_exits_3(self, f2_path, capsys):
        assert main(["analyze", f2_path, "--anticanonical"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-ample" in captured.err

    def test_ray_cap_exits_4(self, b5_path, f2_path, capsys):
        assert main(["analyze", b5_path, "--anticanonical", "--max-rays", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capped at 3" in captured.err
        # F2 (4 rays) fails both checks; ampleness is decided first.
        assert main(["analyze", f2_path, "--anticanonical", "--max-rays", "3"]) == 3
        assert capsys.readouterr().out == ""

    def test_one_ampleness_check_per_request(self, f2_path, count_calls, capsys):
        for divisor, code in (("1,1,3,1", 0), ("1,1,1,1", 3)):
            polytopes = count_calls(polytope, "polytope_from_divisor")
            ample = count_calls(polytope, "is_ample")
            assert main(["analyze", f2_path, "--divisor", divisor]) == code
            assert len(polytopes) == 1 and len(ample) == 1

    def test_missing_file_exits_4(self, capsys):
        assert main(["analyze", "/no/such/file.json", "--anticanonical"]) == 4
        assert capsys.readouterr().out == ""

    def test_bad_divisor_text_exits_4(self, f2_path, capsys):
        assert main(["analyze", f2_path, "--divisor", "1,x,3,1"]) == 4
        assert "bad rational" in capsys.readouterr().err

    def test_wrong_coefficient_count_exits_4(self, f2_path, capsys):
        assert main(["analyze", f2_path, "--divisor", "1,1,3"]) == 4

    def test_divisor_flags_are_mutually_exclusive(self, f2_path, capsys):
        code = main(["analyze", f2_path, "--anticanonical", "--divisor", "1,1,3,1"])
        assert code == 4
        assert main(["analyze", f2_path]) == 4

    def test_not_json_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text("not json at all")
        assert main(["analyze", str(bad), "--anticanonical"]) == 4

    # Each is P2 with one number that int() would quietly turn into a valid
    # entry, so the file would be analyzed as some other fan.
    @pytest.mark.parametrize("field, value", [
        ("rays", [[1.5, 0], [0, 1], [-1, -1]]),
        ("rays", [[True, 0], [0, 1], [-1, -1]]),
        ("rays", [["1", 0], [0, 1], [-1, -1]]),
        ("dim", 2.9),
        ("dim", "2"),
        ("max_cones", [[0.2, 1], [1, 2], [0, 2]]),
    ], ids=["ray-float", "ray-bool", "ray-string", "dim-float", "dim-string", "index-float"])
    def test_non_integer_fan_entries_exit_4(self, tmp_path, capsys, field, value):
        raw = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
               "max_cones": [[0, 1], [1, 2], [0, 2]]}
        raw[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["analyze", str(bad), "--anticanonical"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed fan file" in captured.err


class TestConstruct:
    def test_pn(self, capsys):
        assert main(["construct", "pn", "2"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == fan_to_dict(construct_projective_space(2))

    def test_hirzebruch(self, capsys):
        assert main(["construct", "hirzebruch", "3"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == fan_to_dict(construct_hirzebruch(3))

    def test_proj_split(self, capsys):
        assert main(["construct", "proj-split", "--base", "2", "--twists", "2,0"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == fan_to_dict(construct_proj_split(2, (2, 0)))

    def test_product(self, capsys):
        assert main(["construct", "product", "pn:1", "pn:3"]) == 0
        got = json.loads(capsys.readouterr().out)
        expected = construct_product(
            construct_projective_space(1), construct_projective_space(3)
        )
        assert got == fan_to_dict(expected)

    def test_construct_feeds_analyze(self, tmp_path, capsys):
        out = tmp_path / "c1.json"
        assert main(
            ["construct", "proj-split", "--base", "2", "--twists", "2,0",
             "--out", str(out)]
        ) == 0
        f = load_fan_file(str(out))
        assert f == construct_proj_split(2, (2, 0))
        assert main(["analyze", str(out), "--anticanonical"]) == 0
        assert json.loads(capsys.readouterr().out)["mu_tx"] == "297/2"

    def test_bad_kind_exits_4(self, capsys):
        assert main(["construct", "weighted", "2"]) == 4

    def test_missing_params_exit_4(self, capsys):
        assert main(["construct", "pn"]) == 4
        assert main(["construct", "proj-split", "--base", "2"]) == 4
        assert main(["construct", "product", "pn:1"]) == 4
        assert main(["construct", "product", "pn:1", "grass:2"]) == 4
        assert main(["construct", "product", "pn", "pn:3"]) == 4

    def test_negative_dimension_exits_4(self, capsys):
        assert main(["construct", "pn", "0"]) == 4


class TestCatalog:
    EXPECTED = {
        "P4": ("stable", None),
        "B1": ("unstable", 1),
        "B2": ("unstable", 1),
        "B3": ("unstable", 1),
        "B4": ("semistable", 1),
        "B5": ("semistable", 3),
        "C1": ("unstable", 2),
        "C2": ("unstable", 2),
        "C3": ("unstable", 1),
        "C4": ("semistable", 2),
    }

    def test_json_rows(self, capsys):
        assert main(["catalog", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 10
        for row in rows:
            verdict, rank = self.EXPECTED[row["name"]]
            assert row["verdict"] == verdict
            assert row["rank"] == rank

    def test_human_table(self, capsys):
        assert main(["catalog"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("name")
        assert lines[1].split() == ["P4", "stable", "-"]
        assert lines[6].split() == ["B5", "semistable", "3"]
        assert lines[10].split() == ["C4", "semistable", "2"]

    def test_byte_identical(self, capsys):
        main(["catalog"])
        first = capsys.readouterr().out
        main(["catalog"])
        assert capsys.readouterr().out == first


class TestScan:
    def test_frozen_grid(self, capsys):
        code = main(
            ["scan", "--m", "1", "--a1", "1:3", "--a2", "0", "--a3", "0",
             "--a4", "1:3"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "a1,a2,a3,a4,a,b,ample,verdict\n"
            "1,0,0,1,1,1,true,unstable\n"
            "1,0,0,2,1,2,true,semistable\n"
            "1,0,0,3,1,3,true,stable\n"
            "2,0,0,1,2,1,true,unstable\n"
            "2,0,0,2,2,2,true,unstable\n"
            "2,0,0,3,2,3,true,unstable\n"
            "3,0,0,1,3,1,true,unstable\n"
            "3,0,0,2,3,2,true,unstable\n"
            "3,0,0,3,3,3,true,unstable\n"
        )

    def test_stability_flips_where_the_closed_form_says(self, capsys):
        main(["scan", "--m", "1", "--a1", "1:2", "--a2", "0", "--a3", "0",
              "--a4", "1:6"])
        for line in capsys.readouterr().out.splitlines()[1:]:
            a1, a2, a3, a4, a, b, ample, verdict = line.split(",")
            assert ample == "true"
            expected = (
                "stable" if 2 * int(a1) < int(a4)
                else "unstable" if 2 * int(a1) > int(a4)
                else "semistable"
            )
            assert verdict == expected

    def test_non_ample_rows_are_flagged_and_skipped(self, capsys):
        main(["scan", "--m", "2", "--a1", "1", "--a2", "1", "--a3", "1",
              "--a4", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "1,1,1,1,0,2,false,"

    def test_square_lattice_is_semistable(self, capsys):
        main(["scan", "--m", "0", "--a1", "1", "--a2", "1", "--a3", "1",
              "--a4", "1"])
        assert capsys.readouterr().out.splitlines()[1] == "1,1,1,1,2,2,true,semistable"

    def test_one_ampleness_check_per_grid_point(self, count_calls, capsys):
        polytopes = count_calls(polytope, "polytope_from_divisor")
        ample = count_calls(polytope, "is_ample")
        args = ["scan", "--m", "2", "--a1", "1", "--a2", "1", "--a3", "3", "--a4", "1"]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["1,1,3,1,2,2,true,unstable"]
        assert len(polytopes) == 1 and len(ample) == 1

    def test_uses_lf_line_endings(self, capsys):
        main(["scan", "--m", "0", "--a1", "1", "--a2", "1", "--a3", "1",
              "--a4", "1"])
        out = capsys.readouterr().out
        assert "\r" not in out and out.endswith("\n")

    def test_bad_bounds_exit_4(self, capsys):
        assert main(["scan", "--m", "1", "--a1", "3:1", "--a2", "0",
                     "--a3", "0", "--a4", "1"]) == 4
        assert main(["scan", "--m", "-1", "--a1", "1", "--a2", "0",
                     "--a3", "0", "--a4", "1"]) == 4
        assert main(["scan", "--m", "1", "--a1", "x:2", "--a2", "0",
                     "--a3", "0", "--a4", "1"]) == 4


class TestOracle:
    def test_witness_case(self, f2_path, capsys):
        assert main(["oracle", f2_path, "--lam", "0,-1,0,-1"]) == 0
        assert capsys.readouterr().out == (
            "witness: (0, 1)\nspan dim: 1 (witness expected)\nAGREE\n"
        )

    def test_no_witness_case(self, f2_path, capsys):
        assert main(["oracle", f2_path, "--lam=-1,0,-1,0"]) == 0
        assert capsys.readouterr().out == (
            "witness: non-existent\nspan dim: 2 (no witness expected)\nAGREE\n"
        )

    def test_b5_refuted_case(self, b5_path, capsys):
        assert main(["oracle", b5_path, "--lam", "0,0,0,0,-1,-1"]) == 0
        assert capsys.readouterr().out == (
            "witness: non-existent\nspan dim: 2 (no witness expected)\nAGREE\n"
        )

    def test_one_dual_basis_per_request(self, f2_path, b5_path, count_calls, capsys):
        duals = count_calls(lattice, "dual_basis")
        for path, lam in ((f2_path, "0,-1,0,-1"), (b5_path, "0,0,0,0,-1,-1")):
            duals.clear()
            assert main(["oracle", path, "--lam", lam]) == 0
            assert len(duals) == 1

    def test_lambda_validated_once_per_request(self, f2_path, count_calls, capsys):
        checks = count_calls(sheafdata, "validate_lambda_matrix")
        for lam, code in (("0,-1,0,-1", 0), ("-1,-1,0,0", 5), ("0,0", 5)):
            checks.clear()
            assert main(["oracle", f2_path, f"--lam={lam}"]) == code
            assert len(checks) == 1

    def test_invalid_lambda_exits_5(self, f2_path, capsys):
        assert main(["oracle", f2_path, "--lam=-1,-1,0,0"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "span a cone" in captured.err

    def test_wrong_length_exits_5(self, f2_path, capsys):
        assert main(["oracle", f2_path, "--lam", "0,0"]) == 5

    def test_bad_lambda_text_exits_4(self, f2_path, capsys):
        assert main(["oracle", f2_path, "--lam", "0,x,0,0"]) == 4


class TestTopLevel:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_subcommand_exits_4(self, capsys):
        assert main(["frobnicate"]) == 4

    def test_no_arguments_exits_4(self, capsys):
        assert main([]) == 4

    @pytest.mark.parametrize("argv", [
        ["analyze", "{fan}", "--divisor", "1,1,3,1"],
        ["construct", "pn", "2"],
        ["catalog"],
        ["scan", "--m", "0", "--a1", "1", "--a2", "1", "--a3", "1", "--a4", "1"],
        ["oracle", "{fan}", "--lam", "0,-1,0,-1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("target", ["missing_dir/out.txt", "."],
                             ids=["missing-dir", "directory"])
    def test_unwritable_out_exits_4(self, tmp_path, f2_path, capsys, argv, target):
        argv = [a.format(fan=f2_path) for a in argv]
        assert main(argv + ["--out", str(tmp_path / target)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write output" in captured.err


class TestParserReuse:
    def test_parser_is_built_once_per_process(self, f2_path, monkeypatch, capsys):
        init = argparse.ArgumentParser.__init__
        built = []

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        per_call = []
        for _ in range(3):
            built.clear()
            assert main(["analyze", f2_path, "--divisor", "1,1,3,1"]) == 0
            per_call.append(len(built))
        assert per_call[0] <= 6
        assert per_call[1:] == [0, 0]

    def test_results_do_not_depend_on_earlier_calls(self, f2_path, capsys):
        runs = [
            ["analyze", f2_path, "--divisor", "1,1,3,1"],
            ["analyze", f2_path, "--anticanonical"],
            ["analyze", f2_path],
            ["--help"],
            ["analyze", "--help"],
            ["oracle", f2_path, "--lam", "0,-1,0,-1"],
            ["construct", "hirzebruch", "2"],
            ["frobnicate"],
            ["scan", "--m", "1", "--a1", "1:2", "--a2", "0", "--a3", "0", "--a4", "1:3"],
        ]

        def results(order):
            got = {}
            for i in order:
                code = main(list(runs[i]))
                out, err = capsys.readouterr()
                got[i] = (code, out, err)
            return got

        expected = results(range(len(runs)))
        assert [expected[i][0] for i in range(len(runs))] == [0, 3, 4, 0, 0, 0, 0, 4, 0]
        for seed in range(12):
            order = list(range(len(runs)))
            random.Random(seed).shuffle(order)
            assert results(order) == expected, order


class TestEntryPoint:
    def test_python_dash_m_exit_codes(self, f2_path, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        assert main(["analyze", f2_path, "--divisor", "1,1,3,1"]) == 0
        in_process = capsys.readouterr().out
        for args, code in ((["--divisor", "1,1,3,1"], 0), (["--anticanonical"], 3),
                           (["--divisor", "1,x,3,1"], 4)):
            proc = subprocess.run([sys.executable, "-m", "toricstab", "analyze", f2_path, *args],
                                  env=env, capture_output=True, timeout=60)
            assert proc.returncode == code, proc.stderr
            assert proc.stdout == (in_process.encode() if code == 0 else b"")


def _pinned_runs(tmp_path):
    """Argument lists of the pinned CLI digest: every golden case with its
    own divisor scaled by 1, 1/2 and 2/3, the catalog, and a scan grid."""
    for i, case in enumerate(golden_suite()):
        f = build_case_fan(case)
        path = write_fan(tmp_path, f, f"golden{i}.json")
        base = [1] * len(f.rays) if case.divisor == "anticanonical" else case.divisor
        if case.divisor == "anticanonical":
            yield ["analyze", path, "--anticanonical"]
        else:
            yield ["analyze", path, "--divisor", ",".join(str(c) for c in base)]
        for k in (Fraction(1, 2), Fraction(2, 3)):
            coeffs = ",".join(str(k * Fraction(c)) for c in base)
            yield ["analyze", path, "--divisor", coeffs]
    yield ["catalog", "--json"]
    yield ["scan", "--m", "1", "--a1", "0:2", "--a2", "0:2", "--a3", "0:2", "--a4", "0:2"]


class TestPinnedDigest:
    # SHA-256 over "<exit code>\n<stdout>" of every run of _pinned_runs, in
    # order; any change to a number, a verdict, a certificate or the
    # formatting of a report moves it.
    DIGEST = "4fb93abc77253a2b66cc1f60e9c36a35f7dc2d80e2862225dbb9a7a3cfe73976"

    def test_cli_output_digest(self, tmp_path, capsys):
        h = hashlib.sha256()
        for argv in _pinned_runs(tmp_path):
            code = main(argv)
            h.update(f"{code}\n".encode())
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == self.DIGEST
