"""Kernel caps, the one channel for every cap: no function takes a cap as an
argument. The five values here are all caps, and every reader takes them
when it is called, so a change here takes effect at the next call; a residue
record reads the Bell and Bernoulli caps once, when it is made, and the lone
record's memo key holds them. `exact` reads `EXACT_INDEX_CAP` and
`EXACT_POWER_SUM_CAP` at each call, so the catalog's exact checks C14-C16
widen with them. The CLI's `--bell-cap` and `--bernoulli-cap` set the two
record caps for one command and restore them.
"""

# Largest n for bell_mod (O(n) when n! is a unit mod m, else read from the
# Bell row) and bell_sequence_mod (one chirp-z product at a prime modulus,
# otherwise a divide-and-conquer series solve while n! is a unit mod m, then
# O(n) per further value). The residue record builds Bell_{p-1} mod p, with
# no power table, and mod p^3, which every p^2 reader reduces.
BELL_MOD_CAP = 100_000

# Bernoulli/Gregory tables mod p (power-series inverses): largest prime p;
# also the most cells the Gregory store `residues._gregory_tables` keeps.
BERNOULLI_MOD_CAP = 100_000

# Exact rational sequences (fast-growing numerators): largest index of an
# exact Bernoulli, Gregory or Bell number.
EXACT_INDEX_CAP = 256

# Exact Fermat-quotient sums (p-1 exact powers a^(p-1)): largest prime.
EXACT_POWER_SUM_CAP = 101

# Segmented sieve block length.
SIEVE_SEGMENT = 1 << 20
