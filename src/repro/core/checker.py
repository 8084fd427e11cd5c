"""The contract checker: verify the four observations against simulated devices.

:class:`ContractChecker` runs small, targeted versions of the paper's
characterization experiments against one ESSD (and a local-SSD baseline) and
produces an :class:`~repro.core.contract.ObservationEvidence` per observation.
This is the programmatic core of the repository: the full experiment
harness in :mod:`repro.experiments` reuses the same machinery at paper scale.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.contract import UNWRITTEN_CONTRACT, ObservationEvidence
from repro.ebs import EssdDevice, EssdProfile, aws_io2_profile
from repro.host.io import GiB, KiB, MiB
from repro.metrics.stats import coefficient_of_variation, latency_gap, throughput_gain
from repro.sim import Simulator
from repro.ssd import SsdConfig, SsdDevice, samsung_970pro_profile
from repro.workload.fio import FioJob, JobResult, run_job

#: Latency-gap factor that counts as "much higher" for Observation 1.
SMALL_IO_GAP_THRESHOLD = 10.0
#: Minimum random/sequential gain that confirms Observation 3.
GAIN_THRESHOLD = 1.15
#: Maximum coefficient of variation that counts as "deterministic" (Obs. 4).
DETERMINISM_CV_THRESHOLD = 0.10


@dataclass
class CheckerConfig:
    """Knobs controlling how much work each observation check performs."""

    #: Device capacities used for the checks (scaled; ratios preserved).
    ssd_capacity_bytes: int = 512 * MiB
    essd_capacity_bytes: int = 1 * GiB
    #: I/Os per latency cell (Observation 1).
    latency_ios: int = 300
    #: Capacity multiples written in the GC check (Observation 2).
    gc_write_capacity_factor: float = 1.6
    #: Simulated time per throughput measurement (us) for Observations 3-4.
    throughput_window_us: float = 150_000.0


@dataclass
class ContractReport:
    """The checker's overall verdict for one device pair."""

    essd_name: str
    ssd_name: str
    evidence: list[ObservationEvidence] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        """Whether every observation of the contract held."""
        return all(item.holds for item in self.evidence)

    def evidence_for(self, observation_number: int) -> ObservationEvidence:
        for item in self.evidence:
            if item.observation.number == observation_number:
                return item
        raise KeyError(f"no evidence for observation #{observation_number}")

    def summary(self) -> str:
        lines = [f"Contract check: {self.essd_name} vs {self.ssd_name}"]
        for item in self.evidence:
            status = "HOLDS" if item.holds else "VIOLATED"
            lines.append(f"  {item.observation.identifier} [{status}] {item.summary}")
        return "\n".join(lines)


class ContractChecker:
    """Runs the four observation checks for one ESSD profile."""

    def __init__(self, essd_profile: Optional[EssdProfile] = None,
                 ssd_config: Optional[SsdConfig] = None,
                 config: Optional[CheckerConfig] = None):
        self.config = config or CheckerConfig()
        self.essd_profile = (essd_profile or aws_io2_profile()).with_capacity(
            self.config.essd_capacity_bytes)
        self.ssd_config = (ssd_config
                           or samsung_970pro_profile(self.config.ssd_capacity_bytes))
        self.contract = UNWRITTEN_CONTRACT

    # -- device factories -----------------------------------------------------------
    def _fresh_essd(self, sim: Simulator) -> EssdDevice:
        return EssdDevice(sim, self.essd_profile)

    def _fresh_ssd(self, sim: Simulator) -> SsdDevice:
        return SsdDevice(sim, self.ssd_config)

    def _run(self, device_factory: Callable[[Simulator], object], job: FioJob,
             preload: bool = False) -> JobResult:
        """Run ``job`` on a fresh device in its own simulation, then free
        that simulation.

        A finished simulation is a reference cycle (an SSD's flush and GC
        workers stay parked on events the device holds), so only the cyclic
        collector frees it.  Collecting here keeps one device alive per
        checker at a time instead of however many the collector lets pile
        up.  The job's sim, device and parked workers are still in the
        young generations, so a young collection frees them; a full one,
        which walks everything the process holds, runs only if the device
        survived.
        """
        sim = Simulator()
        device = device_factory(sim)
        if preload:
            device.preload()
        result = run_job(sim, device, job)
        survivor = weakref.ref(device)
        del sim, device
        gc.collect(1)
        if survivor() is not None:
            gc.collect()
        return result

    def _measure_latency(self, device_factory: Callable[[Simulator], object],
                         pattern: str, io_size: int, queue_depth: int) -> float:
        job = FioJob(name="lat", pattern=pattern, io_size=io_size,
                     queue_depth=queue_depth, io_count=self.config.latency_ios)
        return self._run(device_factory, job).latency.mean()

    def _measure_throughput(self, device_factory: Callable[[Simulator], object],
                            pattern: str, io_size: int, queue_depth: int,
                            write_ratio: Optional[float] = None) -> float:
        job = FioJob(name="tp", pattern=pattern, io_size=io_size,
                     queue_depth=queue_depth, write_ratio=write_ratio,
                     runtime_us=self.config.throughput_window_us)
        return self._run(device_factory, job, preload=True).throughput_gbps

    # -- observation checks -----------------------------------------------------------
    def check_observation_1(self) -> ObservationEvidence:
        """Small/unscaled I/Os suffer a large latency gap that shrinks with scale."""
        gaps = {}
        for label, (io_size, qd) in {
            "small_4k_qd1": (4 * KiB, 1),
            "scaled_256k_qd1": (256 * KiB, 1),
            "scaled_4k_qd16": (4 * KiB, 16),
        }.items():
            essd = self._measure_latency(self._fresh_essd, "randwrite", io_size, qd)
            ssd = self._measure_latency(self._fresh_ssd, "randwrite", io_size, qd)
            gaps[label] = latency_gap(essd, ssd)
        holds = (gaps["small_4k_qd1"] >= SMALL_IO_GAP_THRESHOLD
                 and gaps["scaled_256k_qd1"] < gaps["small_4k_qd1"]
                 and gaps["scaled_4k_qd16"] < gaps["small_4k_qd1"])
        summary = (f"4KiB/QD1 gap {gaps['small_4k_qd1']:.1f}x, shrinking to "
                   f"{gaps['scaled_256k_qd1']:.1f}x at 256KiB and "
                   f"{gaps['scaled_4k_qd16']:.1f}x at QD16")
        return ObservationEvidence(self.contract.observation(1), holds, summary, gaps)

    def check_observation_2(self) -> ObservationEvidence:
        """The SSD hits a GC cliff within ~1x capacity; the ESSD does not."""
        metrics = {}
        for name, factory, capacity in (
                ("ssd", self._fresh_ssd, self.ssd_config.capacity_bytes),
                ("essd", self._fresh_essd, self.essd_profile.capacity_bytes)):
            job = FioJob(name="gc", pattern="randwrite", io_size=128 * KiB,
                         queue_depth=32,
                         total_bytes=int(self.config.gc_write_capacity_factor * capacity))
            series = self._run(factory, job).timeline.binned(bin_us=50_000.0)
            if not series:
                metrics[f"{name}_cliff_factor"] = None
                continue
            peak = max(sample.gigabytes_per_second for sample in series)
            cliff_factor = None
            written = 0
            for sample in series:
                written += sample.bytes_completed
                if sample.gigabytes_per_second < 0.6 * peak:
                    cliff_factor = written / capacity
                    break
            metrics[f"{name}_cliff_factor"] = cliff_factor
            metrics[f"{name}_peak_gbps"] = peak
        ssd_cliff = metrics.get("ssd_cliff_factor")
        essd_cliff = metrics.get("essd_cliff_factor")
        holds = ssd_cliff is not None and ssd_cliff <= 1.5 and (
            essd_cliff is None or essd_cliff > ssd_cliff * 1.5)
        essd_text = "none" if essd_cliff is None else f"{essd_cliff:.2f}x"
        ssd_text = "none" if ssd_cliff is None else f"{ssd_cliff:.2f}x"
        summary = (f"SSD throughput cliff after {ssd_text} of capacity written; "
                   f"ESSD cliff: {essd_text}")
        return ObservationEvidence(self.contract.observation(2), holds, summary, metrics)

    def check_observation_3(self) -> ObservationEvidence:
        """Random writes outperform sequential writes on the ESSD, not the SSD."""
        io_size, qd = 16 * KiB, 32
        essd_rand = self._measure_throughput(self._fresh_essd, "randwrite", io_size, qd)
        essd_seq = self._measure_throughput(self._fresh_essd, "write", io_size, qd)
        ssd_rand = self._measure_throughput(self._fresh_ssd, "randwrite", io_size, qd)
        ssd_seq = self._measure_throughput(self._fresh_ssd, "write", io_size, qd)
        essd_gain = throughput_gain(essd_rand, essd_seq)
        ssd_gain = throughput_gain(ssd_rand, ssd_seq)
        holds = essd_gain >= GAIN_THRESHOLD and ssd_gain < GAIN_THRESHOLD
        summary = (f"ESSD random/sequential write gain {essd_gain:.2f}x "
                   f"(SSD: {ssd_gain:.2f}x) at {io_size // KiB}KiB QD{qd}")
        metrics = {
            "essd_random_gbps": essd_rand,
            "essd_sequential_gbps": essd_seq,
            "essd_gain": essd_gain,
            "ssd_random_gbps": ssd_rand,
            "ssd_sequential_gbps": ssd_seq,
            "ssd_gain": ssd_gain,
        }
        return ObservationEvidence(self.contract.observation(3), holds, summary, metrics)

    def check_observation_4(self) -> ObservationEvidence:
        """Max bandwidth is flat across write ratios on the ESSD, not the SSD."""
        ratios = (0.0, 0.3, 0.7, 1.0)
        essd_tp = [self._measure_throughput(self._fresh_essd, "randrw", 128 * KiB, 32,
                                            write_ratio=ratio) for ratio in ratios]
        ssd_tp = [self._measure_throughput(self._fresh_ssd, "randrw", 128 * KiB, 32,
                                           write_ratio=ratio) for ratio in ratios]
        essd_cv = coefficient_of_variation(essd_tp)
        ssd_cv = coefficient_of_variation(ssd_tp)
        budget = self.essd_profile.max_throughput_gbps
        near_budget = all(tp <= budget * 1.05 for tp in essd_tp)
        holds = essd_cv <= DETERMINISM_CV_THRESHOLD \
            and ssd_cv > essd_cv and near_budget
        summary = (f"ESSD throughput CV {essd_cv:.3f} (within budget "
                   f"{budget:.2f} GB/s); SSD CV {ssd_cv:.3f}")
        metrics = {
            "write_ratios": list(ratios),
            "essd_gbps": essd_tp,
            "ssd_gbps": ssd_tp,
            "essd_cv": essd_cv,
            "ssd_cv": ssd_cv,
            "budget_gbps": budget,
        }
        return ObservationEvidence(self.contract.observation(4), holds, summary, metrics)

    # -- entry point -----------------------------------------------------------------
    def run(self, observations: Optional[list[int]] = None) -> ContractReport:
        """Run all (or selected) observation checks and return the report."""
        observations = observations or [1, 2, 3, 4]
        checks = {
            1: self.check_observation_1,
            2: self.check_observation_2,
            3: self.check_observation_3,
            4: self.check_observation_4,
        }
        report = ContractReport(essd_name=self.essd_profile.name,
                                ssd_name="local-ssd")
        for number in observations:
            if number not in checks:
                raise ValueError(f"unknown observation #{number}")
            report.evidence.append(checks[number]())
        return report
