"""The records' contract: construction by position and keyword, defaults,
field order, repr, equality and hash, frozenness, fresh containers and
validation, as the CLI, the checkpoints and the reports read them."""

import inspect
import io
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from kurepa import adele, checks, cli, exact, factorizer, residues, search, tables
from kurepa.errors import DomainError, EmptyRangeError
from kurepa.modmath import PrimeRange, Residue

_W = PrimeRange(3, 7)


def test_import_builds_no_dataclass():
    # in a fresh process, so no earlier import has loaded either module
    code = ("import sys, kurepa.cli, kurepa.factorizer\n"
            "from kurepa import modmath, _kernels, residues, exact, checks, "
            "search, adele, tables\n"
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [], out

# (record, every field in order, a value for each, the defaults); the
# values are already canonical, so a record holds them as given
_SPECS = [
    (Residue, ("value", "modulus"), (2, 5), {}),
    (PrimeRange, ("lo", "hi"), (3, 7), {}),
    (adele.AdeleElement, ("window", "residues", "undefined_at"),
     (_W, {5: 1, 7: 2}, frozenset({3})), {"undefined_at": frozenset()}),
    (residues.BernoulliModTable, ("p", "values"), (5, (1, 2, 4, 0)), {}),
    (residues.GregoryModTable, ("p", "values"), (5, (3, 2, 4)), {}),
    (residues.BernoulliIndexSums, ("p", "alternating", "plain", "even"),
     (5, Residue(1, 5), Residue(0, 5), Residue(2, 5)), {}),
    (residues.ResidueProfile,
     ("p", "e", "k_mod", "bell_mod", "der_mod", "wilson_q", "gertsch_q",
      "fermat_q2", "fermat_q3", "lerch_q", "ag_q", "bernoulli_sums"),
     (13, 1, 10, 11, 10, 8, 3, 1, 4, 12, 9, (10, 9, 2)), {}),
    (search.Campaign,
     ("name", "description", "reads", "hit", "expected", "params"),
     ("c", "a campaign", ("gertsch", "wilson"), len, (3, 10, (5,), "equal"),
      {"m_max": 4}),
     {"expected": None, "params": {}}),
    (search.Checkpoint,
     ("campaign", "lo", "hi", "last_p", "hits", "elapsed_s", "scanned", "params"),
     ("qpm_zero", 3, 40, 37, [(2, 3)], 1.5, 11, {"m_max": 5}),
     {"hits": [], "elapsed_s": 0.0, "scanned": 0, "params": {}}),
    (search.VerifyReport,
     ("campaign", "status", "expected", "found", "missing", "unexpected"),
     ("wilson_zero", "fail", (5, 13), (5,), (13,), (7,)),
     {"missing": (), "unexpected": ()}),
    (tables.CellDiff,
     ("row", "column", "reference", "computed", "known", "note"),
     (5, "bell", 15, 16, True, "misprint"), {"known": False, "note": ""}),
    (tables.TableReport, ("name", "rows", "diffs", "extra_rows"),
     ("table1", [(3, 4)], [tables.CellDiff(3, "x", 1, 2)], [(5, 6)]),
     {"rows": [], "diffs": [], "extra_rows": []}),
    (exact.QuotientRecord, ("p", "wilson", "lerch", "gertsch", "h"),
     (5, 5, Fraction(13), 4, Fraction(66, 5)), {}),
    (exact.SuccessorReport, ("n", "step_holds", "factorial_diff_holds"),
     (4, True, False), {}),
    (exact.GenusSplitReport,
     ("g1", "g2", "lhs", "rhs", "split_holds", "diff_form_holds"),
     (1, 1, 2, 6, False, True), {}),
    (factorizer.Factorization, ("n", "factors", "cofactor"),
     (90, ((2, 1), (3, 2)), 5), {"cofactor": 1}),
    (factorizer.GcdReport, ("n_max", "all_two", "failures"),
     (30, False, ((7, 14),)), {}),
    (adele.AdeleComparison, ("mismatch_primes", "agree_from"), ((3, 5), 7), {}),
    (checks.CheckOutcome,
     ("check_id", "p", "lhs", "rhs", "holds", "note", "skipped"),
     ("C04", 7, (1, 2), (1, 3), False, "a note", True),
     {"note": "", "skipped": False}),
    (checks.CheckDescriptor,
     ("id", "kind", "statement", "attribution", "min_p", "run"),
     ("C99", "assert", "1 = 1", "nobody", 5, len),
     {"min_p": 3, "run": None}),
    (checks.CatalogResult, ("lo", "hi", "outcomes"),
     (3, 40, [checks.CheckOutcome("C01", 3, 1, 1, True)]), {"outcomes": []}),
]
_IDS = [spec[0].__name__ for spec in _SPECS]

_MUTABLE = (search.Checkpoint, tables.TableReport, checks.CatalogResult)
_FROZEN = [spec for spec in _SPECS if spec[0] not in _MUTABLE]
# frozen records whose fields include a dict, so they have no hash
_UNHASHABLE = (adele.AdeleElement, search.Campaign)
# records whose repr lists their fields, the form a log prints
_LISTED = [spec for spec in _SPECS if spec[0] not in (
    Residue, PrimeRange, adele.AdeleElement, residues.BernoulliModTable,
    residues.GregoryModTable, tables.TableReport, checks.CatalogResult)]


def _fields(rec, names):
    return tuple(getattr(rec, n) for n in names)


@pytest.mark.parametrize("cls, names, values, defaults", _SPECS, ids=_IDS)
def test_construction_by_position_and_keyword(cls, names, values, defaults):
    assert list(inspect.signature(cls).parameters) == list(names)
    assert _fields(cls(*values), names) == values
    assert _fields(cls(**dict(zip(names, values))), names) == values
    required = values[:len(names) - len(defaults)]
    rec = cls(*required)
    assert _fields(rec, names) == required + tuple(defaults.values())
    assert list(defaults) == list(names[len(required):])


@pytest.mark.parametrize("cls, names, values, defaults", _LISTED,
                         ids=[spec[0].__name__ for spec in _LISTED])
def test_repr_lists_fields_in_order(cls, names, values, defaults):
    body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, names, values, defaults", _FROZEN,
                         ids=[spec[0].__name__ for spec in _FROZEN])
def test_frozen_equality_hash_assignment_and_pickle(cls, names, values, defaults):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    other = cls(*values[:-1], defaults.get(names[-1], values[-2]))
    assert a != other
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert _fields(a, names) == values
    # a record sent to a worker process goes through pickle
    assert _fields(pickle.loads(pickle.dumps(a)), names) == values


@pytest.mark.parametrize("cls", _MUTABLE + (search.Campaign,),
                         ids=lambda c: c.__name__)
def test_fresh_container_per_instance(cls):
    spec = next(s for s in _SPECS if s[0] is cls)
    names, values, defaults = spec[1:]
    required = values[:len(names) - len(defaults)]
    a, b = cls(*required), cls(*required)
    for name, default in defaults.items():
        if isinstance(default, (list, dict)):
            assert getattr(a, name) == default
            assert getattr(a, name) is not getattr(b, name), name


@pytest.mark.parametrize("reads, e, width", [
    (("gertsch", "wilson"), 2, 3), (("kurepa",), 1, 2), (("wilson",), 2, 1),
    (("q3",), None, 1), ((), None, 1)])
def test_campaign_tree_is_derived_from_its_columns(reads, e, width):
    c = search.Campaign("c", "a campaign", reads, len)
    assert (c.e, c.width) == (e, width)
    for name in ("e", "width"):
        with pytest.raises(AttributeError):
            setattr(c, name, 1)
    assert "e" not in c._fields and "width" not in c._fields


def test_mutable_records_take_assignment():
    ck = search.Checkpoint("wilson_zero", 3, 100, 2)
    ck.last_p, ck.scanned = 50, 14
    ck.hits.append(5)
    assert (ck.last_p, ck.scanned, ck.hits) == (50, 14, [5])
    assert ck.to_json() == ('{"campaign": "wilson_zero", "lo": 3, "hi": 100, '
                            '"last_p": 50, "hits": [5], "elapsed_s": 0.0, '
                            '"scanned": 14, "version": 1}')


class TestResidue:
    def test_reduces_and_prints(self):
        r = Residue(12, 5)
        assert (r.value, r.modulus, repr(r)) == (2, 5, "2 (mod 5)")
        assert Residue(-1, 7).value == 6

    @pytest.mark.parametrize("modulus", [1, 0, -3])
    def test_modulus_below_two(self, modulus):
        with pytest.raises(DomainError, match=f"modulus must be >= 2, got {modulus}"):
            Residue(1, modulus)

    def test_int_times_residue_is_a_residue(self):
        r = 3 * Residue(2, 5)
        assert isinstance(r, Residue) and not isinstance(r, tuple)
        assert (r.value, r.modulus) == (1, 5)
        assert r == Residue(1, 5) == 6 and hash(r) == hash(Residue(6, 5))

    def test_json_row_prints_the_residue(self):
        out = io.StringIO()
        cli._emit_rows([{"p": 5, "r": Residue(2, 5)}], "json", out)
        assert out.getvalue() == '[{"p": 5, "r": "2 (mod 5)"}]\n'


class TestPrimeRange:
    def test_prints_and_iterates(self):
        w = PrimeRange(3, 20)
        assert repr(w) == str(w) == "PrimeRange(3, 20)"
        assert list(w) == [3, 5, 7, 11, 13, 17, 19] and 19 in w and 9 not in w

    def test_lo_below_two(self):
        with pytest.raises(DomainError, match=r"PrimeRange.lo must be >= 2, got 1"):
            PrimeRange(1, 10)

    def test_empty(self):
        with pytest.raises(EmptyRangeError, match=r"empty prime range \[10, 9\]"):
            PrimeRange(10, 9)


def test_adele_element_coerces_undefined_at():
    e = adele.AdeleElement(_W, {7: 1}, [5, 3, 5])
    assert type(e.undefined_at) is frozenset and e.undefined_at == {3, 5}
    assert type(adele.AdeleElement(_W, {}).undefined_at) is frozenset
    assert e == adele.AdeleElement(_W, {7: 1}, {3, 5})


def test_mod_tables_have_a_length():
    assert len(residues.BernoulliModTable(5, (1, 2, 4, 0))) == 4
    assert len(residues.GregoryModTable(5, (3, 2, 4))) == 3
    assert len(residues.bernoulli_mod_table(13)) == 12
    assert len(residues.gregory_mod_table(13)) == 11


def test_as_dict_keeps_field_order():
    prof = residues.residue_profile(13, 2)
    row = prof.as_dict()
    assert list(row) == ["p", "e", "k_mod", "bell_mod", "der_mod", "wilson_q",
                         "gertsch_q", "fermat_q2", "fermat_q3", "lerch_q", "ag_q",
                         "bernoulli_sums"]
    assert type(row["bernoulli_sums"]) is list and len(row["bernoulli_sums"]) == 3
    out = checks.CheckOutcome("C04", 7, (1, 2), 3, False).as_dict()
    assert out == {"id": "C04", "p": 7, "lhs": [1, 2], "rhs": 3, "holds": False,
                   "note": "", "skipped": False}
    assert list(out) == ["id", "p", "lhs", "rhs", "holds", "note", "skipped"]


def test_factorization_prints():
    assert str(factorizer.Factorization(90, ((2, 1), (3, 2)), 5)) == "2 x 3^2 x [composite 5]"
    assert str(factorizer.Factorization(1, ())) == "1"
