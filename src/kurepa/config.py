"""Default kernel caps and knobs, overridable via KUREPA_* environment variables.

Every library function that honors a cap also takes it as an explicit keyword
argument; CLI flags take precedence over the environment, which takes
precedence over these defaults.
"""

import os


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


# Largest n for bell_mod (O(n) when n! is a unit mod m, else the O(n^2)
# Bell triangle) and bell_sequence_mod (always the triangle).
BELL_MOD_CAP = _env_int("KUREPA_BELL_CAP", 20000)

# O(p^2) modular Bernoulli/Gregory recurrences: largest prime p.
BERNOULLI_MOD_CAP = _env_int("KUREPA_BERNOULLI_CAP", 5000)

# Exact rational sequences (fast-growing numerators): largest index.
EXACT_BERNOULLI_CAP = _env_int("KUREPA_EXACT_BERNOULLI_CAP", 256)
EXACT_GREGORY_CAP = _env_int("KUREPA_EXACT_GREGORY_CAP", 256)
EXACT_BELL_CAP = _env_int("KUREPA_EXACT_BELL_CAP", 256)

# Exact Fermat-quotient sums (p-1 exact powers a^(p-1)): largest prime.
EXACT_POWER_SUM_CAP = _env_int("KUREPA_EXACT_POWER_SUM_CAP", 101)

# Segmented sieve block length.
SIEVE_SEGMENT = _env_int("KUREPA_SIEVE_SEGMENT", 1 << 20)

# Search campaigns: checkpoint flush interval, in primes processed.
CHECKPOINT_STRIDE = _env_int("KUREPA_STRIDE", 10_000)

# Worker threads for sharded campaign scans.
WORKERS = _env_int("KUREPA_WORKERS", 1)

# Pollard-rho budget, in multiplications, for one factorize() call.
FACTOR_BUDGET = _env_int("KUREPA_FACTOR_BUDGET", 20_000_000)
