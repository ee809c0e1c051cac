"""randpipe: a randomness pipeline toolkit for 10-bit sample streams.

Simulate or load analog sample traces, extract candidate random bits,
qualify 20000-bit sequences against the FIPS-140-1 statistical bounds,
and recover the avr-libc PRNG seed when it was set from a 10-bit analog
reading.
"""
