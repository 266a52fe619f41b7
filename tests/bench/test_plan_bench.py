"""Planner bench gate: reference and default-engine geomeans."""

from __future__ import annotations

from repro.bench.plan_bench import check_plan_record


def _record(**overrides):
    record = {
        "n_rows": 1 << 16,
        "fidelity_problems": [],
        "geomean_speedup": 2.0,
        "gate_min_geomean": 1.5,
        "geomean_speedup_default": 1.0,
        "gate_min_geomean_default": 0.9,
    }
    record.update(overrides)
    return record


def test_check_plan_record_gates_both_engines():
    assert check_plan_record(_record()) == []
    (slow_ref,) = check_plan_record(_record(geomean_speedup=1.2))
    assert "reference-engine geomean speedup 1.2x" in slow_ref
    (slow_default,) = check_plan_record(_record(geomean_speedup_default=0.8))
    assert "default-engine geomean speedup 0.8x below the 0.9x" in slow_default


def test_check_plan_record_smoke_scale_gates_fidelity_only():
    smoke = _record(
        n_rows=1 << 12, geomean_speedup=0.5, gate_min_geomean=None,
        geomean_speedup_default=0.3, gate_min_geomean_default=None,
    )
    assert check_plan_record(smoke) == []
    smoke["fidelity_problems"] = ["rows diverged"]
    assert check_plan_record(smoke) == ["rows diverged"]
