"""randpipe: a randomness pipeline toolkit for 10-bit sample streams.

Simulate or load analog sample traces, extract candidate random bits,
qualify 20000-bit sequences against the FIPS-140-1 statistical bounds,
and recover the avr-libc PRNG seed when it was set from a 10-bit analog
reading.
"""

from .avrprng import srandom, stream
from .crack import (
    CrackConfig,
    CrackResult,
    find_seed,
    find_seed_opt,
    verify_seed,
)
# NOTE: the extract() operation itself is not re-exported here; the name
# would shadow the randpipe.extract submodule. Use randpipe.extract.extract.
from .extract import (
    ExtractorConfig,
    raw_leastsign,
    raw_mean,
    raw_twoleastsign,
    raw_updown,
    von_neumann,
)
from .fips import TestReport, fips_suite, format_report, ints_to_bits
from .samples import (
    SampleTrace,
    SynthModel,
    TraceStats,
    load_trace,
    save_trace,
    synth_trace,
    trace_stats,
)

__version__ = "0.1.0"

__all__ = [
    "srandom",
    "stream",
    "SampleTrace",
    "SynthModel",
    "TraceStats",
    "load_trace",
    "save_trace",
    "synth_trace",
    "trace_stats",
    "ExtractorConfig",
    "von_neumann",
    "raw_leastsign",
    "raw_twoleastsign",
    "raw_updown",
    "raw_mean",
    "TestReport",
    "fips_suite",
    "format_report",
    "ints_to_bits",
    "CrackConfig",
    "CrackResult",
    "find_seed",
    "find_seed_opt",
    "verify_seed",
    "__version__",
]
