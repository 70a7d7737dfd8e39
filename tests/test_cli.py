"""The command-line front end, driven through main(argv)."""

import json

import pytest

from braidinv import cli
from braidinv.verify import SweepReport


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

    def test_unknown_suite(self, capsys):
        for bad in ("bogus", "s5-type=11", "s5-type=0", "s5-type=x"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--suite", bad])
            assert exc.value.code == 2

    def test_jobs_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "relations", "--jobs", "0"])
        assert exc.value.code == 2

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

    def test_audit_validation(self, capsys):
        for bad in ("5", "-1", "nan"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--suite", "s4", "--audit", bad])
            assert exc.value.code == 2
            assert "--audit" in capsys.readouterr().err


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


class TestUsage:
    def test_no_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_bad_invariant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--invariant", "jones", "--braid", "{1,{}}"])
        assert exc.value.code == 2
