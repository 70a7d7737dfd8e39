"""The command-line front end, driven through main(argv)."""

import json

import pytest

from braidinv import cli, invariant
from braidinv.braid import parse_braid
from braidinv.invariant import (
    compute_ado3,
    compute_lg,
    compute_lg_specialized,
)
from braidinv.ring import CycScalar, LaurentPoly1
from braidinv.verify import CheckResult, SweepReport


TREFOIL_ADO = "(-1*w)*t^-4 + (1)*t^-2 + (-1+2*w) + (-1*w)*t^2 + (1)*t^4"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCompute:
    def test_unknot(self, capsys):
        rc, out, _ = run(capsys, "compute", "--invariant", "ado3",
                         "--braid", "{1,{}}")
        assert rc == 0
        assert out == "(1)\n"

    def test_unlink_specialized(self, capsys):
        rc, out, _ = run(capsys, "compute", "--invariant", "lg-spec",
                         "--braid", "{2,{}}")
        assert rc == 0
        assert out == "(0)\n"

    def test_trefoil_all_invariants(self, capsys):
        rc, out, _ = run(capsys, "compute", "--invariant", "ado3",
                         "--braid", "{2,{1,1,1}}")
        assert (rc, out) == (0, TREFOIL_ADO + "\n")
        rc, out, _ = run(capsys, "compute", "--invariant", "lg-spec",
                         "--braid", "{2,{1,1,1}}", "--paranoid")
        assert (rc, out) == (0, TREFOIL_ADO + "\n")
        rc, out, _ = run(capsys, "compute", "--invariant", "lg",
                         "--braid", "{2,{1,1,1}}")
        assert rc == 0
        assert out == ("(1) + (-1)*s1^2 + (1)*s1^4 + (-1)*s0^2 + "
                       "(2)*s0^2*s1^2 + (-1)*s0^2*s1^4 + (1)*s0^4 + "
                       "(-1)*s0^4*s1^2\n")

    def test_byte_identical_reruns(self, capsys):
        args = ("compute", "--invariant", "ado3", "--braid", "{3,{1,-2,1,-2}}")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert (rc1, out1) == (rc2, out2)

    def test_parse_error(self, capsys):
        rc, out, err = run(capsys, "compute", "--invariant", "ado3",
                           "--braid", "{2,{7}}")
        assert rc == 2
        assert out == ""
        assert "error:" in err and "7" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "braids.txt"
        path.write_text("# two knots\n{2,{1,1,1}}\n{1,{}}\n")
        rc, out, _ = run(capsys, "compute", "--invariant", "ado3",
                         "--file", str(path))
        assert rc == 0
        assert out == TREFOIL_ADO + "\n(1)\n"

    def test_file_walks_each_strand_count_once(self, capsys, tmp_path,
                                              monkeypatch):
        # interleaved strand counts and a repeated braid: one walk per
        # strand count, in order of first appearance, over its distinct
        # letter sequences, and the values in input order
        texts = ["{3,{1,-2,1}}", "{2,{1,1,1}}", "{4,{3,-2,1,2}}", "{3,{2,2}}",
                 "{2,{1,1,1}}", "{4,{1,-3,-3}}", "{2,{-1}}"]
        path = tmp_path / "mixed.txt"
        path.write_text("\n".join(texts) + "\n")
        expected = {inv: "".join(f"{compute(parse_braid(t)).value}\n"
                                 for t in texts)
                    for inv, compute in (("ado3", compute_ado3),
                                         ("lg", compute_lg),
                                         ("lg-spec", compute_lg_specialized))}
        walks = []
        trace_totals = invariant._trace_totals

        def spy(inv, strands, seqs, *args):
            walks.append((strands, seqs))
            return trace_totals(inv, strands, seqs, *args)

        monkeypatch.setattr(invariant, "_trace_totals", spy)
        for inv, out in expected.items():
            assert run(capsys, "compute", "--invariant", inv,
                       "--file", str(path))[:2] == (0, out)
            assert walks == [(3, [(1, -2, 1), (2, 2)]),
                             (2, [(1, 1, 1), (-1,)]),
                             (4, [(3, -2, 1, 2), (1, -3, -3)])]
            walks.clear()

    def test_file_above_the_strand_bound_prints_nothing(self, capsys,
                                                        tmp_path, monkeypatch):
        # the bound is checked before the first walk, and the error names
        # the braid
        path = tmp_path / "braids.txt"
        path.write_text("{2,{1,1,1}}\n{1,{}}\n{9,{1}}\n{2,{1}}\n")
        walks = []
        monkeypatch.setattr(invariant, "_trace_totals",
                            lambda *args: walks.append(args))
        rc, out, err = run(capsys, "compute", "--invariant", "ado3",
                           "--file", str(path))
        assert (rc, out) == (2, "")
        assert "{9,{1}}" in err
        assert "9 strands" in err and "bound of 8 strands" in err
        assert not walks

    def test_paranoid_failure_prints_nothing(self, capsys, tmp_path,
                                             monkeypatch):
        # wrong closure weights keep the off-diagonal blocks zero, so only
        # the paranoid diagonal comparison catches them; the one-strand
        # braid, which has no middle, is right and is still not printed
        bad = (LaurentPoly1.t_power(2), LaurentPoly1.t_power(2),
               LaurentPoly1.t_power(2, -CycScalar.omega()))
        kernel = invariant._BUILDERS["ado3"].kernel
        monkeypatch.setattr(invariant, "_weight_monomials",
                            lambda inv: ([kernel.terms(v) for v in bad], 0.0))
        path = tmp_path / "braids.txt"
        path.write_text("{1,{}}\n{2,{1}}\n")
        rc, out, err = run(capsys, "compute", "--invariant", "ado3",
                           "--paranoid", "--file", str(path))
        assert (rc, out) == (1, "")
        assert err.startswith("error:") and "{2,{1}}" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, out, err = run(capsys, "compute", "--invariant", "ado3",
                           "--file", str(tmp_path / "nope.txt"))
        assert rc == 2
        assert "error:" in err

    def test_too_many_strands(self, capsys):
        for inv in ("ado3", "lg-spec", "lg"):
            rc, out, err = run(capsys, "compute", "--invariant", inv,
                               "--braid", "{20,{1}}")
            assert (rc, out) == (2, "")
            assert "20 strands" in err and "bound of 8 strands" in err

    def test_strand_bound_still_computes(self, capsys):
        # the closure of s1 s2 ... s7 on 8 strands is the unknot
        rc, out, _ = run(capsys, "compute", "--invariant", "ado3",
                         "--braid", "{8,{1,2,3,4,5,6,7}}")
        assert (rc, out) == (0, "(1)\n")

    def test_strand_count_in_ascii_digits(self, capsys):
        # "\u0663" is an Arabic-Indic three, a decimal digit that is not 3
        rc, out, err = run(capsys, "compute", "--invariant", "ado3",
                           "--braid", "{\u0663,{1,2}}")
        assert (rc, out) == (2, "")
        assert "malformed braid" in err
        rc, out, _ = run(capsys, "compute", "--invariant", "ado3",
                         "--braid", "{3,{1,2}}")
        assert (rc, out) == (0, "(1)\n")

    def test_braid_and_file_mutually_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--invariant", "ado3", "--braid", "{1,{}}",
                      "--file", str(tmp_path / "x.txt")])
        assert exc.value.code == 2


class TestVerify:
    def test_relations_suite(self, capsys):
        rc, out, err = run(capsys, "verify", "--suite", "relations")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("[PASS] ") for line in lines)
        assert any("cubic relation (colored Alexander)" in line
                   for line in lines)
        assert any("(ado3 specialized)" in line for line in lines)
        assert "(0.0" in err or "s)" in err     # timings go to stderr

    def test_s5_type_suite_with_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        rc, out, _ = run(capsys, "verify", "--suite", "s5-type=1",
                         "--jobs", "1", "--audit", "0",
                         "--report", str(report_path))
        assert rc == 0
        lines = out.splitlines()
        assert "Type1: 648/648 equal" in lines
        assert "total: 648/648 equal" in lines
        assert not any(line.startswith("UNEQUAL") for line in lines)
        doc = json.loads(report_path.read_text())
        assert doc["summary"]["Type1"] == {"words": 648, "equal": 648,
                                           "unequal": 0}
        assert len(doc["entries"]) == 648
        assert all(e["equal"] and e["diff"] == "(0)" for e in doc["entries"])

    @pytest.mark.parametrize("suite, check", [
        ("corollary", "[PASS] corollary: values at t = 1 and t = w: "
                      "648 values evaluated, 0 violations"),
        ("symmetry", "[PASS] palindromic symmetry t -> w/t: "
                     "648 values checked, 0 violations"),
    ])
    def test_value_check_suites(self, capsys, suite, check):
        rc, out, _ = run(capsys, "verify", "--suite", suite)
        assert rc == 0
        assert out.splitlines() == [
            check, "S4: 648/648 equal", "total: 648/648 equal",
            "audit: 7 generic recomputations, 0 failures"]

    @pytest.mark.parametrize("bad", [
        "bogus", "s5-type=11", "s5-type=0", "s5-type=x", "s5-type=\u00b2",
        "s5-type=03", "s5-type=\u0663", "s5-type=+3"],
        ids=["bogus", "type11", "type0", "typex", "superscript2", "type03",
             "arabic-indic3", "plus3"])
    def test_unknown_suite(self, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", bad])
        assert exc.value.code == 2
        assert f"unknown suite {bad!r}" in capsys.readouterr().err

    def test_suite_table(self, capsys, monkeypatch):
        # what each suite sweeps and checks, with every check replaced
        runs = []

        def sweep(words, **kwargs):
            runs[-1][0] = tuple(dict.fromkeys(cw.family for cw in words))
            return SweepReport()

        def check(name, result):
            def record(*args):
                runs[-1][1] += (name,)
                return result
            return record

        passed = CheckResult("fake", True, "", 0.0)
        monkeypatch.setattr(cli, "run_equality_sweep", sweep)
        monkeypatch.setattr(cli, "_relation_checks",
                            check("relations", [passed]))
        monkeypatch.setattr(cli, "check_corollary", check("corollary", passed))
        monkeypatch.setattr(cli, "check_symmetry", check("symmetry", passed))
        record = {}
        for suite in cli._SUITES:
            runs.append([(), ()])
            assert run(capsys, "verify", "--suite", suite)[0] == 0
            record[suite] = tuple(runs[-1])
        types = tuple(f"Type{k}" for k in range(1, 11))
        assert record == {
            "relations": ((), ("relations",)),
            "s4": (("S4",), ()),
            "s5": (types, ()),
            **{f"s5-type={k}": ((f"Type{k}",), ()) for k in range(1, 11)},
            "corollary": (("S4",), ("corollary",)),
            "symmetry": (("S4",), ("symmetry",)),
            "all": (("S4",) + types, ("relations", "corollary", "symmetry")),
        }

    def test_report_needs_a_sweep(self, capsys, tmp_path, monkeypatch):
        def checks():
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "_relation_checks", checks)
        report = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "relations",
                      "--report", str(report)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--report" in err and "relations" in err
        assert not report.exists()

    @pytest.mark.parametrize("flag", [["--paranoid"], ["--audit", "0.5"],
                                      ["--jobs", "1"]],
                             ids=["paranoid", "audit", "jobs"])
    def test_relations_refuses_sweep_flags(self, capsys, monkeypatch, flag):
        def checks():
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "_relation_checks", checks)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "relations"] + flag)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag[0] in captured.err and "relations" in captured.err

    def test_jobs_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "s4", "--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_jobs_capped_at_cpu_count(self, capsys, monkeypatch):
        # the sweep is replaced, so no worker process is started
        seen = []

        def sweep(words, *, jobs, **kwargs):
            seen.append(jobs)
            return SweepReport()

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "run_equality_sweep", sweep)
        for requested, used in (("64", 2), ("2", 2), ("1", 1)):
            rc, _, _ = run(capsys, "verify", "--suite", "s4",
                           "--jobs", requested)
            assert rc == 0
            assert seen.pop() == used

    def test_unwritable_report_fails_before_the_sweep(self, capsys, tmp_path,
                                                      monkeypatch):
        def sweep(words, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_equality_sweep", sweep)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, out, err = run(capsys, "verify", "--suite", "s4", "--jobs", "1",
                           "--report", str(blocker / "r.json"))
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and "r.json" in err

    def test_audit_validation(self, capsys):
        # 1e-320 is in [0, 1], but its step 1/1e-320 overflows
        for bad in ("5", "-1", "nan", "1e-320"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--suite", "s4", "--audit", bad])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--audit" in err and bad in err


class TestEnumerate:
    def test_writes_family_files(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "enumerate", "--out", str(tmp_path))
        assert rc == 0
        paths = out.splitlines()
        assert len(paths) == 11
        assert paths[0].endswith("s4.txt")
        with open(paths[0]) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        assert len(lines) == 648

    def test_unwritable_directory(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, out, err = run(capsys, "enumerate", "--out", str(blocker / "words"))
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and "words" in err


class TestUsage:
    def test_no_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_bad_invariant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--invariant", "jones", "--braid", "{1,{}}"])
        assert exc.value.code == 2
