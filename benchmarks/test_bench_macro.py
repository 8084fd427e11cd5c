"""Macro-vs-discrete validation benchmark: error envelope, speedup, scale.

Three sections, written to ``BENCH_macro.json`` (and a human-readable
error table in ``BENCH_macro_table.md``):

* **validation** -- every workload family the mean-field model claims to
  approximate is run discretised and as a macro aggregate through the
  serial fleet path; the relative errors of the latency quantiles and
  throughput are recorded per family and hard-gated against the declared
  tolerance bands (the same bands ``tests/test_macro_validation.py``
  enforces).  The ``max_*_err`` roll-ups are tracked by
  ``benchmarks/compare_bench.py`` so the approximation cannot silently
  degrade between PRs.
* **speedup** -- one 64-device group simulated discretely vs as a macro
  aggregate (calibration memo warm, best-of-three): the whole point of the
  model is that group size stops costing wall-clock.
* **scale** -- the registered ``fleet-macro-100k`` scenario (quick-shrunk,
  >= 100k devices) must finish its first cell within the wall-clock bound
  that makes it usable in CI.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.cluster import FleetTopology, fleet, group, run_fleet_serial, tenant
from repro.cluster.macro import clear_calibration_memo
from repro.experiments.scenarios import get_scenario
from repro.experiments.sweep import quick_cells

_REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = _REPO_ROOT / "BENCH_macro.json"
TABLE = _REPO_ROOT / "BENCH_macro_table.md"

#: Declared per-family error envelope of the mean-field approximation
#: (relative error vs the discrete reference).  Kept in lockstep with
#: tests/test_macro_validation.py.
FAMILIES = {
    "randread": dict(
        device="SSD",
        workload=dict(pattern="randread", io_size=4096, queue_depth=4,
                      io_count=200),
        bands=dict(p50=0.10, p95=0.10, p99=0.15, mean=0.10, throughput=0.25),
    ),
    "randwrite": dict(
        device="SSD",
        workload=dict(pattern="randwrite", io_size=16384, queue_depth=8,
                      io_count=200),
        bands=dict(p50=0.10, p95=0.10, p99=0.15, mean=0.10, throughput=0.10),
    ),
    "randrw": dict(
        device="ESSD-2",
        workload=dict(pattern="randrw", io_size=16384, queue_depth=4,
                      write_ratio=0.3, io_count=200),
        bands=dict(p50=0.10, p95=0.10, p99=0.15, mean=0.10, throughput=0.25),
    ),
    "trace-uniform": dict(
        device="ESSD-2",
        workload=dict(trace="uniform", duration_us=50_000.0, load_gbps=0.4,
                      io_size=65536, write_ratio=0.7),
        bands=dict(p50=0.10, p95=0.10, p99=0.15, mean=0.10, throughput=0.10),
    ),
}

#: Macro must beat the discrete run of the speedup topology by at least
#: this factor with a warm calibration memo (it lands around 500x; the
#: floor only catches the approximation collapsing into per-device work).
MIN_SPEEDUP = 5.0

#: The *tracked* speedup saturates here: past the cap the macro path is
#: "free" and the exact wall-clock ratio is timer noise, so the
#: compare_bench gate watches the saturated value (a dip below the cap is
#: a real structural regression) while the raw ratio is still recorded.
SPEEDUP_CAP = 50.0

#: Wall-clock bound for one quick cell of fleet-macro-100k (>=100k
#: devices).  The acceptance bar is < 60 s; the assert leaves headroom
#: below it so CI machines slower than the recording host still pass.
MAX_100K_WALL_S = 60.0


def _rel_err(measured: float, reference: float) -> float:
    if measured == reference:
        return 0.0
    return abs(measured - reference) / max(abs(measured), abs(reference), 1e-12)


def _family_fleet(spec: dict, count: int = 6) -> FleetTopology:
    return fleet(
        "macro-bench",
        groups=[group("grp", spec["device"], count)],
        tenants=[tenant("t", "grp", **spec["workload"])],
        epoch_us=1000.0,
        seed=71,
    )


def _validation_section() -> dict:
    families = {}
    for name, spec in FAMILIES.items():
        topology = _family_fleet(spec)
        discrete = run_fleet_serial(topology)["tenants"]["t"]
        macro = run_fleet_serial(topology.with_modes({"grp": "macro"}))["tenants"]["t"]
        assert macro["ios_completed"] == discrete["ios_completed"], name
        errors = {
            f"{quantile}_err": round(_rel_err(macro[f"{quantile}_us"],
                                              discrete[f"{quantile}_us"]), 4)
            for quantile in ("p50", "p95", "p99", "mean")
        }
        errors["throughput_err"] = round(
            _rel_err(macro["throughput_gbps"], discrete["throughput_gbps"]), 4)
        # Hard gate: the recorded envelope stays inside the declared bands.
        bands = spec["bands"]
        for quantile in ("p50", "p95", "p99", "mean"):
            assert errors[f"{quantile}_err"] <= bands[quantile], \
                f"{name} {quantile}: {errors} outside {bands}"
        assert errors["throughput_err"] <= bands["throughput"], \
            f"{name} throughput: {errors} outside {bands}"
        families[name] = {**errors,
                          "bands": bands,
                          "ios": macro["ios_completed"]}
    section = dict(families=families)
    for key in ("p50_err", "p95_err", "p99_err", "throughput_err"):
        section[f"max_{key}"] = max(f[key] for f in families.values())
    return section


def _speedup_section() -> dict:
    spec = FAMILIES["randwrite"]
    topology = _family_fleet(spec, count=64)
    macro_topology = topology.with_modes({"grp": "macro"})

    started = time.perf_counter()
    discrete = run_fleet_serial(topology)
    discrete_wall = time.perf_counter() - started

    clear_calibration_memo()
    run_fleet_serial(macro_topology)  # cold run pays calibration once
    macro_wall = min(
        _timed(lambda: run_fleet_serial(macro_topology)) for _ in range(3))

    speedup = discrete_wall / macro_wall if macro_wall > 0 else 0.0
    assert speedup >= MIN_SPEEDUP, \
        f"macro speedup {speedup:.1f}x below the {MIN_SPEEDUP}x floor"
    return {
        "devices": 64,
        "discrete_wall_s": round(discrete_wall, 4),
        "macro_wall_s": round(macro_wall, 5),
        "macro_vs_discrete": min(round(speedup, 1), SPEEDUP_CAP),
        "macro_vs_discrete_raw": round(speedup, 1),
        "discrete_ios": discrete["fleet"]["ios_completed"],
    }


def _timed(func) -> float:
    started = time.perf_counter()
    func()
    return time.perf_counter() - started


def _scale_section() -> dict:
    cell = quick_cells(get_scenario("fleet-macro-100k").cells())[0]
    topology = FleetTopology.from_json(cell.fleet)
    assert topology.total_devices >= 100_000
    started = time.perf_counter()
    payload = run_fleet_serial(topology)
    wall_s = time.perf_counter() - started
    assert wall_s < MAX_100K_WALL_S, \
        f"fleet-macro-100k quick cell took {wall_s:.1f}s"
    assert payload["fleet"]["approximate"] is True
    return {
        "scenario": "fleet-macro-100k",
        "devices": topology.total_devices,
        "ios_completed": payload["fleet"]["ios_completed"],
        "wall_s": round(wall_s, 3),
    }


def _write_table(validation: dict) -> None:
    lines = [
        "# Macro-vs-discrete error envelope",
        "",
        "Relative error of the mean-field (macro) model against the",
        "discrete reference, per workload family. Bands are the declared",
        "tolerances gated by the validation harness.",
        "",
        "| family | p50 | p95 | p99 | mean | throughput | band (p50/p99/tput) |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, entry in sorted(validation["families"].items()):
        bands = entry["bands"]
        lines.append(
            f"| {name} | {entry['p50_err']:.1%} | {entry['p95_err']:.1%} "
            f"| {entry['p99_err']:.1%} | {entry['mean_err']:.1%} "
            f"| {entry['throughput_err']:.1%} "
            f"| {bands['p50']:.0%} / {bands['p99']:.0%} / "
            f"{bands['throughput']:.0%} |")
    lines += [
        "",
        f"Max errors: p50 {validation['max_p50_err']:.1%}, "
        f"p95 {validation['max_p95_err']:.1%}, "
        f"p99 {validation['max_p99_err']:.1%}, "
        f"throughput {validation['max_throughput_err']:.1%}.",
        "",
    ]
    TABLE.write_text("\n".join(lines))


def test_macro_validation_envelope_and_artifact():
    validation = _validation_section()
    speedup = _speedup_section()
    scale = _scale_section()
    payload = {
        "benchmark": "macro",
        "validation": validation,
        "speedup": speedup,
        "scale": scale,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_table(validation)
    print(f"\nmacro validation benchmark -> {ARTIFACT.name}")
    print(json.dumps(payload, indent=2, sort_keys=True))
