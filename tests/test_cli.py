import json

import pytest

from kurepa import checks, config, factorizer, search
from kurepa.cli import build_parser, main
from kurepa.errors import InvariantViolation


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
        assert err == "error: odd prime required, got 4\n"

    @pytest.mark.parametrize("p", ["2", "1"])
    def test_not_an_odd_prime_one_error_line(self, capsys, p):
        # the record's one check words these as it words a composite
        code, out, err = run(capsys, "residues", "--p", p)
        assert code == 2 and out == ""
        assert err == f"error: odd prime required, got {p}\n"

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
        code, _, err = run(capsys, "residues", "--p", "100003")
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

    @pytest.mark.parametrize("ids", ["", "C01,"])
    def test_empty_id_exits_2(self, capsys, ids):
        # --ids "" once read as no subset and ran all 32 checks
        code, out, err = run(capsys, "catalog", "--to", "20", "--ids", ids,
                             "--format", "json")
        assert (code, out) == (2, "")
        assert err == "error: unknown check id ''\n"

    def test_window_without_odd_primes_exits_0(self, capsys):
        code, out, _ = run(capsys, "catalog", "--from", "2", "--to", "2",
                           "--format", "json")
        assert (code, out) == (0, "[]\n")
        assert json.loads(out) == []

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_window_without_odd_primes_prints_nothing(self, capsys, fmt):
        code, out, _ = run(capsys, "catalog", "--from", "2", "--to", "2",
                           "--format", fmt)
        assert (code, out) == (0, "")

    def test_assertion_failure_exits_1_with_a_fail_line(self, capsys, monkeypatch):
        # a planted C05 that fails at p = 7 alone
        planted = checks.CATALOG["C05"]._replace(
            run=lambda ctx: (ctx.p - 1, 0 if ctx.p == 7 else ctx.p - 1))
        monkeypatch.setitem(checks.CATALOG, "C05", planted)
        code, out, err = run(capsys, "catalog", "--to", "13", "--ids", "C05",
                             "--format", "json")
        assert code == 1
        assert json.loads(out) == [{"id": "C05", "held": 4, "failed": 1, "skipped": 0}]
        assert err == "FAIL C05 p=7: 6 != 0\n"


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

    @pytest.mark.parametrize("nmax", ["0", "2", "31"])
    def test_factorizations_nmax_outside_3_to_30_exits_2(self, capsys, nmax):
        # --nmax 0 once fell back to the default 24 and printed 22 rows
        code, out, err = run(capsys, "table", "factorizations", "--nmax", nmax)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "[3, 30]" in err

    @pytest.mark.parametrize("nmax", ["0", "2"])
    def test_bell_wilson_nmax_below_3_exits_2(self, capsys, nmax):
        # --nmax 0 once fell back to the default 600 and printed 108 rows
        code, out, err = run(capsys, "table", "bell_wilson", "--nmax", nmax)
        assert code == 2 and out == ""
        assert err.startswith("error:") and ">= 3" in err

    def test_bell_wilson_nmax_sets_the_last_prime(self, capsys):
        code, out, _ = run(capsys, "table", "bell_wilson", "--nmax", "3",
                           "--format", "json")
        assert code == 0
        assert [r["row"] for r in json.loads(out)] == [3]

    @pytest.mark.parametrize("name", ["table1", "quotients", "gertsch",
                                      "agoh_giuga"])
    def test_nmax_for_a_table_without_a_bound_exits_2(self, capsys, name):
        # --nmax was once ignored here and the whole table printed
        code, out, err = run(capsys, "table", name, "--nmax", "5")
        assert (code, out) == (2, "")
        assert err == f"error: table {name} takes no --nmax\n"

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

    def test_verify_against_a_failing_fixture_exits_1(self, capsys, monkeypatch):
        # the fixture without 71: the run finds it, so verify fails
        campaign = search.CAMPAIGNS["wilson_plus_two"]
        monkeypatch.setitem(search.CAMPAIGNS, "wilson_plus_two", campaign._replace(
            expected=(3, 2000, (3, 7), "equal")))
        code, out, err = run(capsys, "search", "wilson_plus_two",
                             "--from", "3", "--to", "2000", "--verify")
        assert code == 1
        assert json.loads(out)["hits"] == [3, 7, 71]
        assert err == "# verify fail: expected (3, 7), found (3, 7, 71)\n"

    def test_invariant_violation_exits_1(self, capsys, monkeypatch):
        def planted(*args, **kwargs):
            raise InvariantViolation("Wilson congruence failed at 7")
        monkeypatch.setattr(search, "run_campaign", planted)
        code, out, err = run(capsys, "search", "wilson_zero", "--to", "100")
        assert (code, out) == (1, "")
        assert err == "error: Wilson congruence failed at 7\n"

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

    def test_m_max_below_two_exits_2(self, capsys):
        code, out, err = run(capsys, "search", "qpm_zero", "--to", "37",
                             "--m-max", "1")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_resume_with_other_m_max_exits_2(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.json")
        code, _, _ = run(capsys, "search", "qpm_zero", "--to", "37",
                         "--checkpoint", ck)
        assert code == 0
        code, out, err = run(capsys, "search", "qpm_zero", "--to", "37",
                             "--checkpoint", ck, "--resume", "--m-max", "5")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_pair_hit_in_a_wilson_zero_file_exits_2(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text('{"version": 1, "campaign": "wilson_zero", "lo": 3, '
                      '"hi": 100, "last_p": 50, "hits": [[2, 7], 13], '
                      '"elapsed_s": 0.0, "scanned": 14}')
        code, out, err = run(capsys, "search", "wilson_zero", "--to", "100",
                             "--checkpoint", str(ck), "--resume")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_m_max_for_another_campaign_exits_2(self, capsys):
        code, out, err = run(capsys, "search", "wilson_zero", "--to", "100",
                             "--m-max", "5")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_verify_at_a_small_m_max_expects_its_pairs(self, capsys):
        # (2, 3) is the only fixture pair with m <= 3
        code, out, err = run(capsys, "search", "qpm_zero", "--to", "37",
                             "--m-max", "3", "--verify")
        assert code == 0
        assert json.loads(out)["hits"] == [[2, 3]]
        assert "verify pass" in err

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

    @pytest.mark.parametrize("constant", ["log", "ell", "embed"])
    @pytest.mark.parametrize("x", ["abc", "1/0"])
    def test_malformed_x_exits_2(self, capsys, constant, x):
        code, out, err = run(capsys, "adele", constant, "--x", x, "--pmax", "20")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--x" in err


class TestFactorLn1:
    def test_default(self, capsys):
        code, out, _ = run(capsys, "factor-ln1", "--nmax", "10",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["n"] == 3 and rows[0]["factorization"] == "3"

    def test_nmax_28_completes(self, capsys):
        code, out, _ = run(capsys, "factor-ln1", "--nmax", "28",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == list(range(3, 29))
        assert all(r["complete"] for r in rows)

    def test_gate_exits_2(self, capsys):
        code, out, err = run(capsys, "factor-ln1", "--nmax", "31")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "[3, 30]" in err


class TestDefaults:
    def test_stride_and_budget_read_their_module_constants(self):
        ap = build_parser()
        assert (ap.parse_args(["search", "wilson_zero", "--to", "9"]).stride
                == search.CHECKPOINT_STRIDE)
        assert ap.parse_args(["factor-ln1"]).budget == factorizer.FACTOR_BUDGET


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

    @pytest.mark.parametrize("argv, want", [
        (("residues", "--p", "7"), 0),
        (("residues", "--p", "4"), 2),
        (("residues", "--p", "23"), 3),
        (("check", "--id", "C01", "--to", "40"), 0),
        (("catalog", "--to", "40", "--ids", "C07"), 0),
    ])
    def test_flags_leave_config_as_found(self, capsys, monkeypatch, argv, want):
        monkeypatch.setattr(config, "BELL_MOD_CAP", 1234)
        monkeypatch.setattr(config, "BERNOULLI_MOD_CAP", 4321)
        code, _, _ = run(capsys, *argv, "--bell-cap", "21", "--bernoulli-cap", "10")
        assert code == want
        assert (config.BELL_MOD_CAP, config.BERNOULLI_MOD_CAP) == (1234, 4321)

    def test_flags_default_to_config(self, capsys, monkeypatch):
        monkeypatch.setattr(config, "BELL_MOD_CAP", 21)
        code, _, err = run(capsys, "residues", "--p", "23")
        assert code == 3 and "exceeds the cap 21" in err
        assert config.BELL_MOD_CAP == 21

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
