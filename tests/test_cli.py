import json

import pytest

from kurepa.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestResidues:
    def test_profile_row(self, capsys):
        code, out, _ = run(capsys, "residues", "--p", "13")
        assert code == 0
        assert "10" in out  # !13 mod 13

    def test_composite_exits_2(self, capsys):
        code, _, err = run(capsys, "residues", "--p", "4")
        assert code == 2
        assert "not prime" in err

    def test_wilson_prime_row(self, capsys):
        code, out, _ = run(capsys, "residues", "--p", "563", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["wilson_q"] == 0

    def test_json_matches_table1(self, capsys):
        code, out, _ = run(capsys, "residues", "--p", "13", "--format", "json")
        row = json.loads(out)[0]
        assert row["k_mod"] == 10 and row["bell_mod"] == 11

    def test_capacity_exit_3(self, capsys):
        code, _, err = run(capsys, "residues", "--p", "50021")
        assert code == 3


class TestCheck:
    def test_assertion_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "C01",
                           "--from", "3", "--to", "600")
        assert code == 0

    def test_measurement_reports(self, capsys):
        code, _, err = run(capsys, "check", "--id", "C31",
                           "--from", "3", "--to", "50")
        assert code == 0
        assert "finding" in err

    def test_unknown_id_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "--id", "C99", "--to", "50")
        assert code == 2

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "C05",
                           "--to", "20", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("id,p,lhs,rhs,holds")

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "out.json"
        code, _, _ = run(capsys, "check", "--id", "C05", "--to", "20",
                         "--format", "json", "--out", str(dest))
        assert code == 0
        assert json.loads(dest.read_text())


class TestCatalog:
    def test_small_range(self, capsys):
        code, out, err = run(capsys, "catalog", "--from", "3", "--to", "40",
                             "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert any(r["id"] == "C01" for r in rows)

    def test_subset(self, capsys):
        code, out, _ = run(capsys, "catalog", "--to", "40",
                           "--ids", "C01,C05", "--format", "json")
        assert code == 0
        assert {r["id"] for r in json.loads(out)} == {"C01", "C05"}


class TestTable:
    def test_gertsch(self, capsys):
        code, _, err = run(capsys, "table", "gertsch")
        assert code == 0
        assert "0 unexplained" in err

    def test_agoh_giuga_known(self, capsys):
        code, _, err = run(capsys, "table", "agoh_giuga")
        assert code == 0
        assert "known misprint" in err

    def test_factorizations(self, capsys):
        code, _, _ = run(capsys, "table", "factorizations", "--nmax", "12")
        assert code == 0

    def test_unknown_name(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(capsys, "table", "nope")
        assert e.value.code == 2


class TestSearch:
    def test_vp_zero_with_verify(self, capsys):
        code, out, err = run(capsys, "search", "wilson_plus_two",
                             "--from", "3", "--to", "2000", "--verify")
        assert code == 0
        assert json.loads(out)["hits"] == [3, 7, 71]
        assert "verify pass" in err

    def test_checkpoint_and_resume(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.json")
        code, _, _ = run(capsys, "search", "wilson_zero", "--to", "600",
                         "--checkpoint", ck)
        assert code == 0
        code, out, _ = run(capsys, "search", "wilson_zero", "--to", "600",
                           "--checkpoint", ck, "--resume")
        assert code == 0
        assert json.loads(out)["hits"] == [5, 13, 563]

    def test_bad_resume_exits_2(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text("{broken")
        code, _, err = run(capsys, "search", "wilson_zero", "--to", "600",
                           "--checkpoint", str(ck), "--resume")
        assert code == 2
        assert "corrupt" in err

    def test_unwritable_checkpoint_exits_2(self, capsys, tmp_path):
        ck = str(tmp_path / "missing" / "ck.json")
        code, out, err = run(capsys, "search", "wilson_zero", "--to", "100",
                             "--checkpoint", ck)
        assert code == 2
        assert out == "" and err.startswith("error: cannot write checkpoint")

    def test_empty_range_exits_2(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.json")
        code, out, err = run(capsys, "search", "wilson_zero", "--from", "50",
                             "--to", "10", "--checkpoint", ck)
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("elapsed", ["NaN", "Infinity"])
    def test_non_finite_elapsed_resume_exits_2(self, capsys, tmp_path, elapsed):
        ck = tmp_path / "ck.json"
        ck.write_text('{"version": 1, "campaign": "wilson_zero", "lo": 3, '
                      '"hi": 100, "last_p": 50, "hits": [5, 13], '
                      f'"elapsed_s": {elapsed}, "scanned": 14}}')
        code, out, err = run(capsys, "search", "wilson_zero", "--to", "100",
                             "--checkpoint", str(ck), "--resume")
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert elapsed in ck.read_text()  # not written back

    def test_qpm_pairs(self, capsys):
        code, out, _ = run(capsys, "search", "qpm_zero", "--to", "37",
                           "--m-max", "20")
        assert code == 0
        hits = [tuple(h) for h in json.loads(out)["hits"]]
        assert (14, 19) in hits

    def test_rate_reported(self, capsys):
        code, out, _ = run(capsys, "search", "kurepa_zero", "--to", "500")
        assert json.loads(out)["primes_per_second"] > 0


class TestAdele:
    def test_gamma_w(self, capsys):
        code, out, _ = run(capsys, "adele", "gamma_W",
                           "--pmin", "3", "--pmax", "50", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        res = dict((p, r) for p, r in obj["residues"])
        assert res[5] == 0 and res[13] == 0

    def test_gamma_q(self, capsys):
        code, out, _ = run(capsys, "adele", "gamma_Q", "--m", "2",
                           "--pmin", "3", "--pmax", "11", "--format", "json")
        obj = json.loads(out)
        assert [3, 0] in obj["residues"]

    def test_log_x(self, capsys):
        code, out, _ = run(capsys, "adele", "log", "--x", "1",
                           "--pmin", "3", "--pmax", "30", "--format", "json")
        obj = json.loads(out)
        assert all(r == 0 for _, r in obj["residues"])

    def test_embed_undefined_reported(self, capsys):
        code, out, err = run(capsys, "adele", "embed", "--x", "1/6",
                             "--pmin", "3", "--pmax", "7")
        assert code == 0
        assert "undefined at: [3]" in err


class TestFactorLn1:
    def test_default(self, capsys):
        code, out, _ = run(capsys, "factor-ln1", "--nmax", "10",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["n"] == 3 and rows[0]["factorization"] == "3"

    def test_gate_exits_2(self, capsys):
        code, _, err = run(capsys, "factor-ln1", "--nmax", "28")
        assert code == 2
        assert "long_run" in err


class TestByteStability:
    def test_csv_output_stable(self, capsys):
        _, out1, _ = run(capsys, "table", "gertsch", "--format", "csv")
        _, out2, _ = run(capsys, "table", "gertsch", "--format", "csv")
        assert out1 == out2

    def test_json_output_stable(self, capsys):
        _, out1, _ = run(capsys, "catalog", "--to", "30", "--format", "json")
        _, out2, _ = run(capsys, "catalog", "--to", "30", "--format", "json")
        assert out1 == out2


class TestCapFlags:
    def test_bernoulli_cap_gates_applicability(self, capsys):
        code, out, _ = run(capsys, "catalog", "--to", "40", "--ids", "C07",
                           "--bernoulli-cap", "10", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["held"] == 2 and row["skipped"] == 9

    def test_bell_cap_flag(self, capsys):
        code, _, _ = run(capsys, "residues", "--p", "13",
                         "--bell-cap", "100", "--bernoulli-cap", "100")
        assert code == 0

    @pytest.mark.parametrize("cap, computed", [(22, True), (21, False)])
    def test_bell_cap_is_one_rule(self, capsys, cap, computed):
        # Bell_{p-1} is computed when p - 1 <= bell_cap, by the catalog and
        # by the residue record alike
        code, out, _ = run(capsys, "check", "--id", "C01", "--from", "23",
                           "--to", "23", "--bell-cap", str(cap), "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert (row["skipped"], row["holds"]) == (not computed, True)
        code, out, err = run(capsys, "residues", "--p", "23",
                             "--bell-cap", str(cap), "--format", "json")
        if computed:
            assert code == 0
            assert json.loads(out)[0]["bell_mod"] == 22  # Bell_22 mod 23
        else:
            assert code == 3 and "exceeds the cap 21" in err
