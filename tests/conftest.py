import pytest

from kurepa import _kernels as K
from kurepa import _memo, exact, factorizer


@pytest.fixture(autouse=True)
def fresh_records():
    """Each test starts with every process-wide memo empty, so none holds
    values built under another test's monkeypatch."""
    _memo.clear_all()


@pytest.fixture
def plant_kurepa_zero(monkeypatch):
    """plant(q) makes the prime q a Kurepa zero, !q = 0 (mod q), for every
    reader of the run tree's width-2 !p column: the `kurepa_zero` campaign,
    so `search.kurepa_zeros`, and the residue records. Width-1 and width-3
    runs pass through unchanged. The exact !n, n >= q, is multiplied by q,
    as a real zero would make q divide it, so the exact gcd(!n, n!) is not
    2 there."""
    def plant(q):
        columns, left_factorial = K.run_columns, exact.left_factorial

        def planted(blocks, e, width=2):
            for block, cols in zip(blocks, columns(blocks, e, width)):
                if width != 2:
                    yield cols
                    continue
                fs, ks = cols
                yield fs, [0 if p == q else k for p, k in zip(block, ks)]

        def multiplied(n):
            return left_factorial(n) * (q if n >= q else 1)

        monkeypatch.setattr(K, "run_columns", planted)
        monkeypatch.setattr(exact, "left_factorial", multiplied)
        monkeypatch.setattr(factorizer, "left_factorial", multiplied)
        return multiplied
    return plant
