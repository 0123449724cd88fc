"""The process-wide memos: one type, all registered, never rebound."""

import inspect
import sys
import threading
import time

import kurepa.cli  # noqa: F401  (loads every kurepa module)
from kurepa import _kernels, _memo, checks, exact, factorizer, residues, search
from oracles import gregory_table_mod_py
from test_exact import bernoulli_akiyama_tanigawa, gregory_integral_oracle

MEMOS = {("kurepa._kernels", "_factorization"), ("kurepa._kernels", "_primes"),
         ("kurepa.exact", "_bern"), ("kurepa.exact", "_greg"),
         ("kurepa.residues", "_records"), ("kurepa.residues", "_gregory_tables"),
         ("kurepa.search", "_kurepa_prefix")}


def _modules():
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "kurepa" or name.startswith("kurepa."))}


def _snapshot() -> dict:
    """Every attribute of every kurepa module and class, by identity."""
    out = {}
    for name, mod in _modules().items():
        holders = [mod] + [c for c in vars(mod).values()
                           if inspect.isclass(c) and c.__module__ == name]
        for h in holders:
            for attr, obj in vars(h).items():
                out[(name, getattr(h, "__name__", name), attr)] = id(obj)
    return out


def _fill(p=1009):
    """Use every memo, and return what each call gave."""
    return (checks.run_catalog(3, 120).summary(),
            [residues.residue_profile(p, e) for e in (1, 2, 3)],
            residues.gregory_mod_table(p),
            search.kurepa_zeros(3000),
            factorizer.factorize(10 ** 12 + 39),
            exact.gregory_exact(40), exact.bernoulli_exact(40))


def _found_memos() -> dict:
    return {(name, attr): obj for name, mod in _modules().items()
            for attr, obj in vars(mod).items() if isinstance(obj, _memo.Memo)}


def test_no_module_attribute_is_rebound():
    before = _snapshot()
    _fill()
    after = _snapshot()
    assert {k for k in before if after.get(k) != before[k]} == set()


def test_every_memo_is_registered_and_cleared():
    found = _found_memos()
    assert set(found) == MEMOS and len(_memo._memos) == len(MEMOS)
    assert all(any(m is memo for m in _memo._memos) for memo in found.values())
    first = _fill()
    assert all(found.values()), [k for k, m in found.items() if not m]
    factorization = dict(_kernels._factorization)
    _memo.clear_all()
    assert not any(found.values())
    # re-seeded from empty, the exact memos agree with the independent oracles
    assert [exact.bernoulli_exact(k) for k in range(41)] == bernoulli_akiyama_tanigawa(40)
    assert [exact.gregory_exact(n) for n in range(13)] == [
        gregory_integral_oracle(n) for n in range(13)]
    assert _fill() == first
    assert list(first[2].values) == gregory_table_mod_py(1009)[1:]
    assert len(residues._records) == 1 and 1009 in residues._gregory_tables
    assert _kernels._factorization == factorization


def test_two_threads_sieve_the_trial_primes_once(monkeypatch):
    # the trial primes are the process's one prime list, `_kernels._primes`
    calls, sieve = [], _kernels.sieve_upto

    def counted(n):
        calls.append(n)
        time.sleep(0.05)  # hold the build while the other thread arrives
        return sieve(n)
    monkeypatch.setattr(_kernels, "sieve_upto", counted)
    start, got = threading.Barrier(2), [None, None]

    def call(i):
        start.wait(timeout=60)
        got[i] = factorizer.factorize(10 ** 12 + 39)
    threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert calls == [factorizer._TRIAL_LIMIT]
    assert list(_kernels._primes) == calls and not _kernels._factorization
    assert got[0] == got[1] == factorizer.factorize(10 ** 12 + 39)
    assert got[0].complete and got[0].recompose() == 10 ** 12 + 39
