"""The unwritten contract: observations and implications as first-class objects.

The paper distils its characterization into four observations (how ESSDs
behave differently from local SSDs) and five implications (what cloud storage
users should do about it).  Encoding them as data lets the checker attach
quantitative evidence to each observation and lets the advisors reference the
implication they implement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Observation:
    """One of the contract's measured, counter-intuitive device behaviours."""

    number: int
    title: str
    statement: str
    mechanism: str

    @property
    def identifier(self) -> str:
        return f"O{self.number}"


@dataclass(frozen=True)
class Implication:
    """One of the contract's pieces of advice for cloud storage users."""

    number: int
    title: str
    statement: str
    derived_from: tuple[int, ...]

    @property
    def identifier(self) -> str:
        return f"I{self.number}"


@dataclass
class ObservationEvidence:
    """Quantitative evidence the checker attaches to one observation."""

    observation: Observation
    holds: bool
    summary: str
    metrics: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class UnwrittenContract:
    """The full contract: four observations plus five implications."""

    observations: tuple[Observation, ...]
    implications: tuple[Implication, ...]

    def observation(self, number: int) -> Observation:
        for obs in self.observations:
            if obs.number == number:
                return obs
        raise KeyError(f"no observation #{number}")

    def implication(self, number: int) -> Implication:
        for imp in self.implications:
            if imp.number == number:
                return imp
        raise KeyError(f"no implication #{number}")

    def implications_of(self, observation_number: int) -> list[Implication]:
        """The implications derived (at least in part) from an observation."""
        return [imp for imp in self.implications
                if observation_number in imp.derived_from]

    def describe(self) -> str:
        """Human-readable rendering of the whole contract."""
        lines = ["The Unwritten Contract of Cloud-based ESSDs", ""]
        lines.append("Observations:")
        for obs in self.observations:
            lines.append(f"  {obs.identifier}. {obs.statement}")
        lines.append("")
        lines.append("Implications:")
        for imp in self.implications:
            origins = ", ".join(f"O{n}" for n in imp.derived_from)
            lines.append(f"  {imp.identifier}. {imp.statement} (from {origins})")
        return "\n".join(lines)


OBSERVATIONS = (
    Observation(
        number=1,
        title="Latency gap at small scale",
        statement=("The latency of ESSDs is tens to a hundred times higher than "
                   "that of the local SSD when I/Os are not well scaled up "
                   "(small I/O sizes and/or low queue depths)."),
        mechanism=("Network latency and storage-software processing dominate small "
                   "I/Os; scaling sizes and queue depths amortizes them across the "
                   "distributed backend."),
    ),
    Observation(
        number=2,
        title="GC impact delayed or hidden",
        statement=("The performance impact of garbage collection appears much "
                   "later than on a local SSD, or disappears entirely."),
        mechanism=("The provider hides device GC behind abundant, shared backend "
                   "resources; what eventually surfaces is provider-side flow "
                   "limiting, not flash GC."),
    ),
    Observation(
        number=3,
        title="Random writes beat sequential writes",
        statement=("Random-write throughput outperforms sequential-write "
                   "throughput, by up to 1.52x / 2.79x on the two ESSDs."),
        mechanism=("The volume's chunks are distributed and replicated across many "
                   "nodes; random writes spread over more placement groups and "
                   "therefore enjoy more aggregate backend bandwidth."),
    ),
    Observation(
        number=4,
        title="Deterministic maximum bandwidth",
        statement=("The maximum bandwidth is deterministic and no longer sensitive "
                   "to the access pattern (it equals the purchased throughput "
                   "budget); the IOPS guarantee remains size-dependent."),
        mechanism=("Provider-side QoS enforces one byte-rate budget across reads "
                   "and writes alike, hiding flash-level asymmetry."),
    ),
)

IMPLICATIONS = (
    Implication(
        number=1,
        title="Scale I/Os up",
        statement=("Scale I/O sizes and I/O queue depths up as much as possible to "
                   "amortize the cloud storage overhead."),
        derived_from=(1,),
    ),
    Implication(
        number=2,
        title="Revisit GC-mitigation techniques",
        statement=("Reconsider whether and how GC-mitigation techniques designed "
                   "for local SSDs should be adapted for ESSDs."),
        derived_from=(2,),
    ),
    Implication(
        number=3,
        title="Rethink sequentializing writes",
        statement=("Rethink converting random writes into sequential writes, and "
                   "consider proactively issuing random writes in "
                   "sequential-write-based software."),
        derived_from=(2, 3),
    ),
    Implication(
        number=4,
        title="Smooth I/O over time",
        statement=("Smooth read/write I/Os so they are evenly distributed across "
                   "the timeline and stay below the guaranteed throughput budget."),
        derived_from=(4,),
    ),
    Implication(
        number=5,
        title="Re-evaluate I/O reduction",
        statement=("Re-evaluate I/O-reduction techniques (compression, "
                   "deduplication) previously considered harmful to performance."),
        derived_from=(1, 4),
    ),
)

#: The contract exactly as the paper states it.
UNWRITTEN_CONTRACT = UnwrittenContract(observations=OBSERVATIONS,
                                       implications=IMPLICATIONS)
