"""FIO-like workload generation, trace synthesis, and job execution.

The paper drives its characterization with the FIO benchmark tool; this
package provides the equivalent: declarative job specifications
(:class:`FioJob`), address-pattern generators, an asynchronous closed-loop
runner with a configurable queue depth (:func:`run_job`), and open-loop trace
replay for burst-sensitive experiments (Implication 4).
"""

from repro.workload.fio import FioJob, JobResult, run_job, run_streams
from repro.workload.patterns import (
    AccessPattern,
    MixedPattern,
    RandomPattern,
    SequentialPattern,
    ZipfianPattern,
    make_pattern,
)
from repro.workload.trace import (
    TraceEvent,
    Trace,
    replay_trace,
    synthesize_bursty_trace,
    synthesize_diurnal_trace,
    synthesize_uniform_trace,
)

__all__ = [
    "FioJob",
    "JobResult",
    "run_job",
    "run_streams",
    "AccessPattern",
    "RandomPattern",
    "SequentialPattern",
    "ZipfianPattern",
    "MixedPattern",
    "make_pattern",
    "Trace",
    "TraceEvent",
    "replay_trace",
    "synthesize_bursty_trace",
    "synthesize_diurnal_trace",
    "synthesize_uniform_trace",
]
