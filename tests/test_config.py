"""`config` holds five caps, and each reader takes them when it is called."""

import pytest

from kurepa import config, exact, modmath, residues, search
from kurepa.errors import CapacityError


def _segments(monkeypatch):
    """The number of sieve segments iter_primes walks over [1000, 1100],
    not counting those of its base primes' sieve."""
    seen, compress = [], modmath.compress
    monkeypatch.setattr(modmath, "compress",
                        lambda data, keep: seen.append(data) or compress(data, keep))
    assert len(modmath.sieve_primes(1000, 1100)) == 16
    return sum(data.start >= 1000 for data in seen)


def _outcome(observe, monkeypatch):
    try:
        return observe(monkeypatch)
    except CapacityError:
        return "refused"


# name: (value to set, observation, its outcome at the default, after the set)
CASES = {
    "BELL_MOD_CAP": (21, lambda m: int(residues.bell_mod(22, 23)), 22, "refused"),
    "BERNOULLI_MOD_CAP": (10, lambda m: residues.bernoulli_mod_table(11).p, 11, "refused"),
    "EXACT_INDEX_CAP": (10, lambda m: exact.bernoulli_exact(12).denominator, 2730, "refused"),
    "EXACT_POWER_SUM_CAP": (5, lambda m: exact.sum_fermat_quotients_exact(7), 9595, "refused"),
    "SIEVE_SEGMENT": (10, _segments, 1, 11),
}


def test_config_holds_five_caps():
    assert sorted(k for k in vars(config) if not k.startswith("_")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_value_takes_effect_at_the_next_call(monkeypatch, name):
    value, observe, default, changed = CASES[name]
    assert _outcome(observe, monkeypatch) == default
    monkeypatch.setattr(config, name, value)
    assert _outcome(observe, monkeypatch) == changed


def test_stride_default_is_the_search_constant():
    assert search.run_campaign.__kwdefaults__["stride"] == search.CHECKPOINT_STRIDE
