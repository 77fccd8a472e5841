"""Tests for generic workflow generators and trace rescaling."""

import networkx as nx
import pytest

from repro.workloads.scaling import (
    normalize_to_single_cpu,
    scale_load,
    scale_sizes,
    transform_runtimes,
)
from repro.workloads.workflowgen import bag_of_tasks, chain, fork_join, layered_random
from tests.conftest import dependency_digraph, make_job, make_trace


class TestBagOfTasks:
    def test_count_and_independence(self):
        wf = bag_of_tasks(20, seed=0)
        assert len(wf.tasks) == 20
        assert all(not t.dependencies for t in wf.tasks)
        assert wf.max_width() == 20

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            bag_of_tasks(0)


class TestChain:
    def test_strictly_sequential(self):
        wf = chain(6, seed=0)
        assert wf.level_widths() == [1] * 6
        assert wf.critical_path_length() == pytest.approx(wf.total_work())


class TestForkJoin:
    def test_shape(self):
        wf = fork_join(8, seed=0)
        assert wf.level_widths() == [1, 8, 1]
        join = wf.task(10)
        assert len(join.dependencies) == 8


class TestLayeredRandom:
    def test_layer_widths_respected(self):
        wf = layered_random([3, 5, 2], seed=1)
        assert wf.level_widths() == [3, 5, 2]

    def test_acyclic(self):
        wf = layered_random([4, 4, 4, 4], seed=2)
        assert nx.is_directed_acyclic_graph(dependency_digraph(wf))

    def test_every_non_entry_task_has_dependency(self):
        wf = layered_random([2, 6, 6], seed=3)
        entry = set(wf.levels()[0])
        for t in wf.tasks:
            if t.job_id not in entry:
                assert t.dependencies

    def test_bad_widths_rejected(self):
        with pytest.raises(ValueError):
            layered_random([])
        with pytest.raises(ValueError):
            layered_random([3, 0])


class TestScaling:
    def test_scale_sizes_doubles(self, small_trace):
        scaled = scale_sizes(small_trace, 2.0)
        assert scaled.machine_nodes == 32
        for orig, new in zip(small_trace, scaled):
            assert new.size == orig.size * 2

    def test_normalize_to_single_cpu_is_integer_scale(self, small_trace):
        norm = normalize_to_single_cpu(small_trace, cpus_per_node=8)
        assert norm.machine_nodes == 128
        assert norm.total_work == pytest.approx(small_trace.total_work * 8)

    def test_scale_sizes_never_below_one_node(self):
        trace = make_trace([make_job(1, size=1)], nodes=16)
        scaled = scale_sizes(trace, 0.1)
        assert scaled[0].size == 1

    def test_scale_load_compresses_arrivals(self, small_trace):
        fast = scale_load(small_trace, 2.0)
        for orig, new in zip(small_trace, fast):
            assert new.submit_time == pytest.approx(orig.submit_time / 2)

    def test_scale_load_drops_jobs_past_window(self):
        trace = make_trace([make_job(1, submit=3600.0)], duration=4000.0)
        slowed = scale_load(trace, 0.5)  # arrival stretches to 7200 > 4000
        assert len(slowed) == 0

    def test_transform_runtimes(self, small_trace):
        doubled = transform_runtimes(small_trace, lambda r: r * 2)
        assert doubled.total_work == pytest.approx(small_trace.total_work * 2)

    def test_transform_rejects_negative(self, small_trace):
        with pytest.raises(ValueError):
            transform_runtimes(small_trace, lambda r: -r)

    def test_invalid_factors(self, small_trace):
        with pytest.raises(ValueError):
            scale_sizes(small_trace, 0)
        with pytest.raises(ValueError):
            scale_load(small_trace, -1)
        with pytest.raises(ValueError):
            normalize_to_single_cpu(small_trace, 0)
