"""Tests for the unwritten contract, its checker, and the implication advisors."""

import gc
import weakref

import pytest

from repro.core import UNWRITTEN_CONTRACT, ContractChecker
from repro.core.contract import ObservationEvidence
from repro.host.io import KiB
from repro.implications import (
    GcAdaptationAdvisor,
    IoReductionEvaluator,
    IoScalingAdvisor,
    IoSmoother,
    LatencyCostModel,
    WritePatternAdvisor,
)
from repro.implications.gc_adaptation import WorkloadWriteProfile
from repro.implications.reduction import (
    DENSE_COMPRESSION,
    FAST_COMPRESSION,
    DeviceLatencyModel,
    ReductionTechnique,
)
from repro.workload import synthesize_bursty_trace, synthesize_uniform_trace

from test_golden_digests import (
    CONTRACT_EVENTS_KEY,
    CONTRACT_KEY,
    INTERPRETER,
    contract_digest,
    load_golden,
    quick_checker_config,
    run_quick_checker,
)


# ---------------------------------------------------------------------------
# Contract structure
# ---------------------------------------------------------------------------

def test_contract_has_four_observations_and_five_implications():
    assert len(UNWRITTEN_CONTRACT.observations) == 4
    assert len(UNWRITTEN_CONTRACT.implications) == 5
    assert UNWRITTEN_CONTRACT.observation(3).identifier == "O3"
    assert UNWRITTEN_CONTRACT.implication(5).identifier == "I5"
    with pytest.raises(KeyError):
        UNWRITTEN_CONTRACT.observation(9)
    with pytest.raises(KeyError):
        UNWRITTEN_CONTRACT.implication(0)


def test_every_implication_traces_back_to_an_observation():
    valid = {obs.number for obs in UNWRITTEN_CONTRACT.observations}
    for implication in UNWRITTEN_CONTRACT.implications:
        assert implication.derived_from
        assert set(implication.derived_from) <= valid
    assert UNWRITTEN_CONTRACT.implications_of(4)  # smoothing + reduction
    text = UNWRITTEN_CONTRACT.describe()
    assert "Observations" in text and "Implications" in text


def test_observation_evidence_truthiness():
    evidence = ObservationEvidence(UNWRITTEN_CONTRACT.observation(1), True, "ok")
    assert bool(evidence)
    assert not ObservationEvidence(UNWRITTEN_CONTRACT.observation(1), False, "nope")


# ---------------------------------------------------------------------------
# Contract checker (small scale so it stays fast)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quick_checker():
    return ContractChecker(config=quick_checker_config())


@pytest.fixture(scope="module")
def quick_run():
    """One full run (all four observations) shared by the checks below, with
    the number of events it scheduled."""
    return run_quick_checker()


@pytest.fixture(scope="module")
def quick_report(quick_run):
    return quick_run[0]


def recorded_golden():
    recorded = load_golden().get(INTERPRETER)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for {INTERPRETER}: float "
                    "sum() differs across interpreter versions")
    return recorded


def test_checker_evidence_matches_golden_digest(quick_report):
    assert contract_digest(quick_report) == recorded_golden()[CONTRACT_KEY][0]


def test_checker_schedules_the_golden_event_count(quick_run):
    """Same results *and* the same events: a cut that is exact by
    construction schedules exactly what the code before it did."""
    assert quick_run[1] == recorded_golden()[CONTRACT_EVENTS_KEY][0]


def test_checker_observation_1_latency_gap(quick_report):
    evidence = quick_report.evidence_for(1)
    assert evidence.holds
    assert evidence.metrics["small_4k_qd1"] > 10
    assert evidence.metrics["scaled_256k_qd1"] < evidence.metrics["small_4k_qd1"]


def test_checker_observation_3_write_pattern(quick_report):
    evidence = quick_report.evidence_for(3)
    assert evidence.holds
    assert evidence.metrics["essd_gain"] > 1.15
    assert evidence.metrics["ssd_gain"] < 1.15


def test_checker_observation_4_determinism(quick_report):
    evidence = quick_report.evidence_for(4)
    assert evidence.holds
    assert evidence.metrics["essd_cv"] < evidence.metrics["ssd_cv"]


def test_checker_report_aggregation(quick_checker):
    report = quick_checker.run(observations=[1, 3])
    assert len(report.evidence) == 2
    assert report.holds
    assert "O1" in report.summary()
    with pytest.raises(KeyError):
        report.evidence_for(4)
    with pytest.raises(ValueError):
        quick_checker.run(observations=[7])


#: ``gc.collect`` itself, for the tests that replace it.
_collect = gc.collect


def recording(factory, devices):
    """``factory``, keeping a weakref to each device it builds in ``devices``."""
    def build(sim):
        device = factory(sim)
        devices.append(weakref.ref(device))
        return device
    return build


def test_each_job_frees_its_device_before_the_next_one(monkeypatch):
    """The Observation-2 floods (SSD, then ESSD) and an ESSD throughput job
    leave no device behind once ``_run`` returns."""
    checker = ContractChecker(config=quick_checker_config())
    devices, freed = [], []
    for name in ("_fresh_ssd", "_fresh_essd"):
        monkeypatch.setattr(checker, name, recording(getattr(checker, name), devices))
    run = checker._run

    def checked_run(*args, **kwargs):
        result = run(*args, **kwargs)
        freed.append(devices[-1]() is None)
        return result
    monkeypatch.setattr(checker, "_run", checked_run)
    checker.check_observation_2()
    assert freed == [True, True]
    checker._measure_throughput(checker._fresh_essd, "randwrite", 16 * KiB, 32)
    assert freed == [True, True, True]


@pytest.fixture
def automatic_collections_off():
    """Only explicit collections move objects between generations."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def collections(monkeypatch, automatic_collections_off):
    """The arguments of every ``gc.collect`` call."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _collect(*args)
    monkeypatch.setattr(gc, "collect", spy)
    return calls


def small_ssd_job():
    from repro.workload.fio import FioJob

    return FioJob(name="lat", pattern="randwrite", io_size=128 * KiB, queue_depth=8,
                  io_count=200)


def test_a_young_collection_frees_a_finished_job(collections):
    """A job's simulation is a reference cycle, still young when the job
    ends: one young collection frees it, and no full one runs."""
    checker = ContractChecker(config=quick_checker_config())
    devices = []
    checker._run(recording(checker._fresh_ssd, devices), small_ssd_job())
    assert collections == [(1,)]
    assert devices[0]() is None


def test_a_full_collection_runs_only_for_a_device_the_young_one_left(collections):
    """A device that reached the oldest generation (here: a full collection
    right after it was built) survives the young collection, and only then
    does ``_run`` collect fully."""
    checker = ContractChecker(config=quick_checker_config())
    devices = []

    def promoted(sim):
        device = checker._fresh_ssd(sim)
        _collect()  # unspied: moves the device into the oldest generation
        return device
    checker._run(recording(promoted, devices), small_ssd_job())
    assert collections == [(1,), ()]
    assert devices[0]() is None


def test_without_a_collection_the_job_device_would_survive(monkeypatch,
                                                           automatic_collections_off):
    """The collections are what free a job: with ``gc.collect`` a no-op,
    the device outlives ``_run`` until something collects."""
    monkeypatch.setattr(gc, "collect", lambda *args: 0)
    checker = ContractChecker(config=quick_checker_config())
    devices = []
    checker._run(recording(checker._fresh_ssd, devices), small_ssd_job())
    assert devices[0]() is not None
    _collect()
    assert devices[0]() is None


# ---------------------------------------------------------------------------
# Implication 1: I/O scaling
# ---------------------------------------------------------------------------

def test_latency_cost_model_fit_and_efficiency():
    model = LatencyCostModel.fit([4 * KiB, 64 * KiB, 256 * KiB], [310.0, 500.0, 950.0])
    assert model.fixed_us > 200
    assert model.latency_us(4 * KiB) < model.latency_us(256 * KiB)
    assert 0 < model.efficiency(4 * KiB) < model.efficiency(256 * KiB) < 1
    size = model.size_for_efficiency(0.5)
    assert model.efficiency(size) == pytest.approx(0.5, rel=0.05)
    with pytest.raises(ValueError):
        LatencyCostModel(fixed_us=-1, bytes_per_us=1)
    with pytest.raises(ValueError):
        LatencyCostModel.fit([4096], [100.0])


def test_io_scaling_advisor_recommends_larger_ios():
    advisor = IoScalingAdvisor.from_measurements(
        [(4 * KiB, 330.0), (64 * KiB, 500.0), (256 * KiB, 950.0)],
        throughput_budget_gbps=3.0)
    rec = advisor.recommend(current_io_size=4 * KiB, current_queue_depth=1,
                            target_efficiency=0.5)
    assert rec.recommended_io_size > 4 * KiB
    assert rec.recommended_queue_depth >= 1
    assert rec.recommended_efficiency > rec.current_efficiency
    assert rec.throughput_speedup >= 1.0
    assert "scale I/O" in rec.describe()


def test_io_scaling_advisor_honours_latency_ceiling():
    advisor = IoScalingAdvisor(LatencyCostModel(fixed_us=300, bytes_per_us=400))
    rec = advisor.recommend(4 * KiB, 1, target_efficiency=0.9,
                            latency_ceiling_us=500.0)
    assert advisor.model.latency_us(rec.recommended_io_size) <= 500.0
    with pytest.raises(ValueError):
        advisor.recommend(4 * KiB, 1, target_efficiency=1.5)


# ---------------------------------------------------------------------------
# Implication 2: GC adaptation
# ---------------------------------------------------------------------------

def test_gc_advisor_drops_mitigation_when_no_cliff():
    advisor = GcAdaptationAdvisor(cliff_capacity_factor=None)
    advice = advisor.advise(WorkloadWriteProfile(daily_write_capacity_factor=0.5))
    assert not advice.keep_mitigation
    assert advice.estimated_gain_from_dropping > 0


def test_gc_advisor_keeps_mitigation_under_heavy_writes_on_local_ssd():
    advisor = GcAdaptationAdvisor(cliff_capacity_factor=0.9,
                                  post_cliff_throughput_fraction=0.3)
    heavy = WorkloadWriteProfile(daily_write_capacity_factor=1.0,
                                 overwrite_fraction=1.0, mitigation_overhead=0.05)
    advice = advisor.advise(heavy, planning_horizon_days=30)
    assert advice.keep_mitigation
    assert advice.days_to_cliff == pytest.approx(0.9, rel=0.01)


def test_gc_advisor_far_cliff_treated_like_none():
    advisor = GcAdaptationAdvisor(cliff_capacity_factor=2.55)
    light = WorkloadWriteProfile(daily_write_capacity_factor=0.01)
    advice = advisor.advise(light, planning_horizon_days=30)
    assert not advice.keep_mitigation
    with pytest.raises(ValueError):
        GcAdaptationAdvisor(cliff_capacity_factor=0)
    with pytest.raises(ValueError):
        WorkloadWriteProfile(daily_write_capacity_factor=-1)


# ---------------------------------------------------------------------------
# Implication 3: write pattern
# ---------------------------------------------------------------------------

def test_write_pattern_advisor_prefers_in_place_on_essd2_numbers():
    advisor = WritePatternAdvisor(random_gbps=1.05, sequential_gbps=0.38)
    advice = advisor.advise(sequentialization_write_amplification=1.3)
    assert not advice.keep_sequentializing
    assert advice.device_gain == pytest.approx(2.76, rel=0.01)
    assert advice.in_place_advantage > 3.0
    assert advisor.proactive_random_write_benefit(0.5) > 1.5


def test_write_pattern_advisor_keeps_log_structure_on_gc_sensitive_ssd():
    advisor = WritePatternAdvisor(random_gbps=2.4, sequential_gbps=2.4)
    advice = advisor.advise(gc_sensitive_device=True)
    assert advice.keep_sequentializing
    no_gain = advisor.advise(sequentialization_write_amplification=1.0)
    assert no_gain.keep_sequentializing  # 1.0x advantage is below the threshold
    with pytest.raises(ValueError):
        advisor.advise(sequentialization_write_amplification=0.5)
    with pytest.raises(KeyError):
        WritePatternAdvisor.from_gain_grid({}, 4096, 1)


# ---------------------------------------------------------------------------
# Implication 4: smoothing
# ---------------------------------------------------------------------------

def test_smoother_cuts_required_budget_for_bursty_traces():
    trace = synthesize_bursty_trace(duration_us=500_000, mean_load_gbps=0.4,
                                    burst_factor=8.0, burst_fraction=0.1, seed=7)
    smoother = IoSmoother(delay_tolerance_us=50_000.0)
    plan = smoother.plan(trace)
    assert plan.unshaped_peak_gbps > 2.0
    assert plan.shaped_budget_gbps < plan.unshaped_budget_gbps / 2
    assert plan.budget_saving > 0.5
    assert plan.max_shaping_delay_us <= plan.delay_tolerance_us * 1.05
    assert plan.monthly_cost_saving(100.0) > 0


def test_smoother_uniform_trace_needs_no_extra_budget():
    trace = synthesize_uniform_trace(duration_us=200_000, load_gbps=0.5, seed=8)
    plan = IoSmoother(delay_tolerance_us=20_000.0).plan(trace)
    assert plan.shaped_budget_gbps == pytest.approx(plan.mean_load_gbps, rel=0.2)
    assert plan.budget_saving >= 0.0


def test_smoother_shape_preserves_volume_and_respects_rate():
    trace = synthesize_bursty_trace(duration_us=300_000, mean_load_gbps=0.3,
                                    burst_factor=6.0, burst_fraction=0.1, seed=9)
    smoother = IoSmoother()
    shaped = smoother.shape(trace, rate_gbps=0.5)
    assert len(shaped) == len(trace)
    assert shaped.total_bytes == trace.total_bytes
    assert shaped.peak_load_gbps(5_000.0) <= 0.65  # ~rate plus binning noise
    with pytest.raises(ValueError):
        smoother.shape(trace, rate_gbps=0)
    with pytest.raises(ValueError):
        IoSmoother(headroom=0.5)


# ---------------------------------------------------------------------------
# Implication 5: I/O reduction
# ---------------------------------------------------------------------------

def essd_model():
    return DeviceLatencyModel("essd", base_latency_us=300.0, per_kib_us=2.0,
                              throughput_budget_gbps=3.0)


def ssd_model():
    return DeviceLatencyModel("ssd", base_latency_us=8.0, per_kib_us=0.4,
                              throughput_budget_gbps=None)


def test_reduction_beneficial_on_essd_but_not_on_fast_local_ssd():
    essd = IoReductionEvaluator(essd_model(), io_size=16 * KiB)
    ssd = IoReductionEvaluator(ssd_model(), io_size=16 * KiB)
    essd_result, ssd_result = essd.compare_devices(DENSE_COMPRESSION, ssd,
                                                   offered_load_gbps=2.0)
    assert essd_result.beneficial_for_performance
    assert essd_result.recommended
    assert essd_result.budget_saving_gbps > 0
    assert not ssd_result.beneficial_for_performance
    assert ssd_result.latency_change > essd_result.latency_change


def test_reduction_fast_compression_is_cheap_everywhere_but_saves_less():
    essd = IoReductionEvaluator(essd_model(), io_size=16 * KiB)
    fast = essd.assess(FAST_COMPRESSION, offered_load_gbps=2.0)
    dense = essd.assess(DENSE_COMPRESSION, offered_load_gbps=2.0)
    assert fast.budget_saving_gbps < dense.budget_saving_gbps
    assert fast.bandwidth_reduction < dense.bandwidth_reduction


def test_reduction_validation():
    with pytest.raises(ValueError):
        ReductionTechnique("bad", 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ReductionTechnique("bad", 1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        IoReductionEvaluator(essd_model(), io_size=0)
