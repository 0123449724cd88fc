"""Default kernel caps and knobs.

The residue record and the catalog take the Bell and Bernoulli caps as
arguments, which the CLI sets with `--bell-cap` and `--bernoulli-cap`;
everything else reads this module.
"""

# Largest n for bell_mod (O(n) when n! is a unit mod m, else read from the
# Bell row) and bell_sequence_mod (one chirp-z product at a prime modulus,
# otherwise a divide-and-conquer series solve while n! is a unit mod m, then
# O(n) per further value). The residue record builds Bell_{p-1} mod p^2, or
# mod p^3 only for a reader at e = 3.
BELL_MOD_CAP = 20000

# Bernoulli/Gregory tables mod p (power-series inverses): largest prime p.
BERNOULLI_MOD_CAP = 50_000

# Exact rational sequences (fast-growing numerators): largest index.
EXACT_BERNOULLI_CAP = 256
EXACT_GREGORY_CAP = 256
EXACT_BELL_CAP = 256

# Exact Fermat-quotient sums (p-1 exact powers a^(p-1)): largest prime.
EXACT_POWER_SUM_CAP = 101

# Segmented sieve block length.
SIEVE_SEGMENT = 1 << 20

# Search campaigns: primes per checkpoint block.
CHECKPOINT_STRIDE = 10_000

# Pollard-rho budget, in multiplications, for one factorize() call.
FACTOR_BUDGET = 20_000_000
