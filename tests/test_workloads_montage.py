"""Tests for the Montage workflow generator."""

import networkx as nx
import pytest

from repro.workloads.montage import MontageSpec, generate_montage
from tests.conftest import dependency_digraph


@pytest.fixture(scope="module")
def montage():
    return generate_montage(seed=0)


class TestPaperShape:
    def test_exactly_1000_tasks(self, montage):
        assert len(montage.tasks) == 1000

    def test_level_structure(self, montage):
        assert montage.level_widths() == [166, 662, 1, 1, 166, 1, 1, 1, 1]

    def test_type_census(self, montage):
        census = montage.type_census()
        assert census["mProjectPP"] == 166
        assert census["mDiffFit"] == 662
        assert census["mBackground"] == 166
        for singleton in ("mConcatFit", "mBgModel", "mImgtbl", "mAdd",
                          "mShrink", "mJPEG"):
            assert census[singleton] == 1

    def test_mean_runtime_is_paper_value(self, montage):
        assert montage.mean_task_runtime() == pytest.approx(11.38, abs=1e-9)

    def test_all_tasks_single_node(self, montage):
        assert all(t.size == 1 for t in montage.tasks)

    def test_widest_ready_level_is_662(self, montage):
        assert montage.max_width() == 662

    def test_dag_is_acyclic(self, montage):
        assert nx.is_directed_acyclic_graph(dependency_digraph(montage))


class TestDependencies:
    def test_diffs_depend_on_two_projections(self, montage):
        projections = {t.job_id for t in montage.tasks if t.task_type == "mProjectPP"}
        for t in montage.tasks:
            if t.task_type == "mDiffFit":
                assert len(t.dependencies) == 2
                assert set(t.dependencies) <= projections

    def test_concat_depends_on_all_diffs(self, montage):
        concat = next(t for t in montage.tasks if t.task_type == "mConcatFit")
        assert len(concat.dependencies) == 662

    def test_background_depends_on_bgmodel_and_projection(self, montage):
        bgmodel = next(t for t in montage.tasks if t.task_type == "mBgModel")
        projections = {t.job_id for t in montage.tasks if t.task_type == "mProjectPP"}
        backgrounds = [t for t in montage.tasks if t.task_type == "mBackground"]
        for t in backgrounds:
            assert bgmodel.job_id in t.dependencies
            assert len(set(t.dependencies) & projections) == 1

    def test_tail_chain(self, montage):
        by_type = {t.task_type: t for t in montage.tasks if t.task_type in
                   ("mImgtbl", "mAdd", "mShrink", "mJPEG")}
        assert by_type["mAdd"].dependencies == (by_type["mImgtbl"].job_id,)
        assert by_type["mShrink"].dependencies == (by_type["mAdd"].job_id,)
        assert by_type["mJPEG"].dependencies == (by_type["mShrink"].job_id,)


class TestParameterization:
    def test_custom_shape(self):
        spec = MontageSpec(n_images=10, n_diffs=25, mean_runtime=5.0)
        wf = generate_montage(spec, seed=1)
        assert len(wf.tasks) == 10 * 2 + 25 + 6
        assert wf.mean_task_runtime() == pytest.approx(5.0)

    def test_no_rescaling_when_mean_none(self):
        spec = MontageSpec(n_images=10, n_diffs=25, mean_runtime=None)
        wf = generate_montage(spec, seed=1)
        assert wf.mean_task_runtime() != pytest.approx(11.38, abs=0.5)

    def test_too_few_diffs_rejected(self):
        with pytest.raises(ValueError):
            MontageSpec(n_images=10, n_diffs=3).validate()

    def test_deterministic(self):
        a = generate_montage(seed=5)
        b = generate_montage(seed=5)
        assert [t.runtime for t in a.tasks] == [t.runtime for t in b.tasks]

    def test_submit_time_propagates(self):
        wf = generate_montage(seed=0, submit_time=500.0)
        assert wf.submit_time == 500.0
        assert all(t.submit_time == 500.0 for t in wf.tasks)

    def test_singleton_stages_dominate_critical_path(self, montage):
        # mBgModel and mAdd are the long poles, so the critical path is much
        # longer than 9 × mean task runtime
        assert montage.critical_path_length() > 9 * montage.mean_task_runtime()
