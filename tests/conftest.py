from datetime import date

import pytest
from hypothesis import settings

import corpus
from refclass.normalization import OverrunObservation
from refclass.registry import Metric, Stage
from refclass.reference_class import ClassFilter, ReferenceClass, build_class

# No per-example deadline: the oracles are slow by design, and a busy host
# can stall one example without anything being wrong.
settings.register_profile("refclass", deadline=None)
settings.load_profile("refclass")


def make_observations(values, ids=None, stage=Stage.C, metric=Metric.COST,
                      outturn=500_000, pre_era=False):
    if ids is None:
        ids = [f"x{i + 1:03d}" for i in range(len(values))]
    return [
        OverrunObservation(
            project_id=pid,
            stage=stage,
            metric=metric,
            value=float(v),
            reference_date=date(2000, 1, 1),
            pre_era=pre_era,
            outturn_nominal=outturn,
        )
        for pid, v in zip(ids, values)
    ]


def make_class(values, ids=None, stage=Stage.C, metric=Metric.COST) -> ReferenceClass:
    observations = make_observations(values, ids, stage, metric)
    return build_class(observations, ClassFilter(stage=stage, metric=metric))


@pytest.fixture
def table2_class() -> ReferenceClass:
    return make_class(corpus.TABLE2_VALUES, ids=corpus.TABLE2_IDS)


@pytest.fixture
def table2_paths(tmp_path):
    return corpus.write_table2_corpus(tmp_path)


@pytest.fixture
def demo_paths(tmp_path):
    return corpus.write_demo_corpus(tmp_path)


@pytest.fixture
def demo_records():
    return corpus.demo_records()
