"""Tests for the synthetic NASA/BLUE trace generators.

These assert the calibration properties the `repro.workloads.traces`
docstring promises — the
properties the paper's conclusions rest on.
"""

import numpy as np
import pytest

from repro.workloads.stats import half_split_arrival_ratio, summarize
from repro.workloads.traces import (
    HTCTraceSpec,
    generate_htc_trace,
    generate_nasa_ipsc,
    generate_sdsc_blue,
)

HOUR = 3600.0


@pytest.fixture(scope="module")
def nasa():
    return generate_nasa_ipsc(seed=0)


@pytest.fixture(scope="module")
def blue():
    return generate_sdsc_blue(seed=0)


class TestNasa:
    def test_job_count_matches_paper(self, nasa):
        assert len(nasa) == 2603

    def test_machine_is_128_nodes(self, nasa):
        assert nasa.machine_nodes == 128

    def test_two_week_duration(self, nasa):
        assert nasa.duration == pytest.approx(14 * 24 * HOUR)

    def test_utilization_calibrated(self, nasa):
        assert nasa.utilization == pytest.approx(0.466, abs=0.01)

    def test_sizes_are_powers_of_two(self, nasa):
        sizes = {j.size for j in nasa}
        assert sizes <= {1, 2, 4, 8, 16, 32, 64, 128}

    def test_contains_machine_filling_job(self, nasa):
        assert nasa.max_size == 128

    def test_short_job_heavy(self, nasa):
        # the DRP hour-rounding penalty requires many sub-hour jobs
        assert summarize(nasa).frac_sub_hour > 0.6

    def test_smooth_arrival_profile(self, nasa):
        ratio = half_split_arrival_ratio(nasa)
        assert 0.7 < ratio < 1.4

    def test_all_jobs_finish_inside_window(self, nasa):
        assert all(j.submit_time + j.runtime <= nasa.duration for j in nasa)

    def test_deterministic_in_seed(self):
        a, b = generate_nasa_ipsc(3), generate_nasa_ipsc(3)
        assert [(j.submit_time, j.size, j.runtime) for j in a] == [
            (j.submit_time, j.size, j.runtime) for j in b
        ]

    def test_different_seeds_differ(self):
        a, b = generate_nasa_ipsc(1), generate_nasa_ipsc(2)
        assert [j.runtime for j in a] != [j.runtime for j in b]


class TestBlue:
    def test_job_count_matches_paper(self, blue):
        assert len(blue) == 2657

    def test_machine_is_144_nodes(self, blue):
        assert blue.machine_nodes == 144

    def test_utilization_calibrated(self, blue):
        # ~61% offered load for the two-week slice (see the spec's
        # calibration note: 76.2% is the archive's whole-log figure)
        assert blue.utilization == pytest.approx(0.615, abs=0.01)

    def test_sparse_then_busy_arrivals(self, blue):
        assert half_split_arrival_ratio(blue) > 1.8

    def test_long_job_dominated(self, blue):
        # low hour-rounding penalty requires mostly multi-hour jobs
        assert summarize(blue).frac_sub_hour < 0.45

    def test_contains_machine_filling_job(self, blue):
        assert blue.max_size == 144

    def test_first_half_jobs_run_longer(self, blue):
        half = blue.duration / 2
        first = [j.runtime for j in blue if j.submit_time < half]
        second = [j.runtime for j in blue if j.submit_time >= half]
        assert np.mean(first) > 1.5 * np.mean(second)

    def test_all_jobs_finish_inside_window(self, blue):
        assert all(j.submit_time + j.runtime <= blue.duration for j in blue)


class TestSpecValidation:
    def test_size_pmf_must_sum_to_one(self):
        bad = HTCTraceSpec(
            name="bad",
            machine_nodes=16,
            duration=3600.0,
            n_jobs=10,
            target_utilization=0.5,
            size_pmf=((1, 0.5),),
            runtime_mixture=((1.0, 60.0, 0.5),),
        )
        with pytest.raises(ValueError):
            generate_htc_trace(bad)

    def test_oversized_pmf_entry_rejected(self):
        bad = HTCTraceSpec(
            name="bad",
            machine_nodes=16,
            duration=3600.0,
            n_jobs=10,
            target_utilization=0.5,
            size_pmf=((32, 1.0),),
            runtime_mixture=((1.0, 60.0, 0.5),),
        )
        with pytest.raises(ValueError):
            generate_htc_trace(bad)

    def test_utilization_bounds(self):
        bad = HTCTraceSpec(
            name="bad",
            machine_nodes=16,
            duration=3600.0,
            n_jobs=10,
            target_utilization=1.5,
            size_pmf=((1, 1.0),),
            runtime_mixture=((1.0, 60.0, 0.5),),
        )
        with pytest.raises(ValueError):
            generate_htc_trace(bad)

    def test_unknown_arrival_profile(self):
        bad = HTCTraceSpec(
            name="bad",
            machine_nodes=16,
            duration=3600.0,
            n_jobs=10,
            target_utilization=0.5,
            size_pmf=((1, 1.0),),
            runtime_mixture=((1.0, 60.0, 0.5),),
            arrival_profile="nope",
        )
        with pytest.raises(ValueError):
            generate_htc_trace(bad)


class TestCustomSpec:
    def test_small_custom_trace_calibrates(self):
        spec = HTCTraceSpec(
            name="mini",
            machine_nodes=32,
            duration=24 * HOUR,
            n_jobs=200,
            target_utilization=0.5,
            size_pmf=((1, 0.5), (4, 0.3), (16, 0.2)),
            runtime_mixture=((0.7, 600.0, 0.8), (0.3, 3600.0, 0.5)),
        )
        trace = generate_htc_trace(spec, seed=1)
        assert len(trace) == 200
        assert trace.utilization == pytest.approx(0.5, abs=0.03)

    def test_wide_job_factor_shortens_wide_jobs(self):
        base = dict(
            name="w",
            machine_nodes=64,
            duration=48 * HOUR,
            n_jobs=400,
            target_utilization=0.4,
            size_pmf=((1, 0.5), (32, 0.5)),
            runtime_mixture=((1.0, 1800.0, 0.3),),
        )
        plain = generate_htc_trace(HTCTraceSpec(**base), seed=2)
        skewed = generate_htc_trace(
            HTCTraceSpec(**base, wide_job_runtime_factor=0.2), seed=2
        )

        def mean_rt(trace, wide):
            vals = [j.runtime for j in trace if (j.size >= 32) == wide]
            return float(np.mean(vals))

        assert mean_rt(skewed, True) / mean_rt(skewed, False) < mean_rt(
            plain, True
        ) / mean_rt(plain, False)
