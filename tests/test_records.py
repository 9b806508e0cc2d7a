"""The package's dataclass records: each documents itself, and each that
holds arrays compares by identity, so it can be compared and hashed."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import treemkl
from treemkl.dataio import StreamFeatureSequence
from treemkl.dmkl import DmklResult
from treemkl.em import EmResult
from treemkl.hierarchy import PooledTree
from treemkl.kernels import GramMatrix, KernelConfig
from treemkl.pipeline import ModelArtifact, PipelineConfig, TrainOutput
from treemkl.simplex import SimplexPoint, SimplexWeights
from treemkl.svm import DualSolution, SvmModel, TrainConfig
from treemkl.synth import SynthDataset, SynthSpec


def package_dataclasses():
    """Every dataclass defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(treemkl.__path__):
        module = importlib.import_module(f"treemkl.{info.name}")
        found += [cls for cls in vars(module).values()
                  if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                  and cls.__module__ == module.__name__]
    return found


def holds_arrays(cls) -> bool:
    return any("np.ndarray" in str(f.type) for f in dataclasses.fields(cls))


def test_every_dataclass_has_its_own_docstring():
    # without one, dataclasses builds "Name(fields...)" from the signature
    classes = package_dataclasses()
    assert len(classes) >= 20
    for cls in classes:
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), \
            cls.__name__


def test_array_records_compare_by_identity_and_configs_by_value():
    for cls in package_dataclasses():
        assert cls.__dataclass_params__.eq is not holds_arrays(cls), \
            cls.__name__


def svm_model():
    return SvmModel(train_ids=("a", "b"), labels=np.array([1, 2]),
                    class_ids=np.array([1, 2]), alpha=np.zeros((2, 2)),
                    b=np.zeros(2))


RECORDS = {
    StreamFeatureSequence: lambda: StreamFeatureSequence(
        "v0", "appearance", np.ones((2, 3))),
    PooledTree: lambda: PooledTree("v0", "appearance", 1, np.ones((1, 3))),
    GramMatrix: lambda: GramMatrix(values=np.eye(2), ids=("a", "b")),
    SvmModel: svm_model,
    DualSolution: lambda: DualSolution(alpha=np.zeros(2), b=0.0, updates=0,
                                       kkt_residual=0.0, objective=0.0),
    SimplexPoint: lambda: SimplexPoint(np.full(2, 0.5)),
    SimplexWeights: lambda: SimplexWeights(np.zeros(2)),
    EmResult: lambda: EmResult(
        beta=np.full(2, 0.5), model=svm_model(), objective_trace=np.zeros(1),
        beta_trace=np.full((1, 2), 0.5), iterations=0, dual_solves=2,
        pair_updates=0, backtracks=0, stop_reason="vertex", kernel_table=()),
    DmklResult: lambda: DmklResult(
        weights=SimplexPoint(np.full(2, 0.5)), model=svm_model(),
        loss_trace=np.zeros(1), beta_trace=np.full((1, 2), 0.5),
        stop_reason="gap", fw_gap=0.0, kernel_table=()),
    SynthDataset: lambda: SynthDataset(
        spec=SynthSpec(), video_ids=["a", "b"], labels=np.array([1, 2]),
        splits=["train", "test"], sequences={}),
    ModelArtifact: lambda: ModelArtifact(
        config={}, pipeline=PipelineConfig(depth=1),
        kernel=KernelConfig(gamma=1.0), svm=TrainConfig(),
        beta=np.ones(1), model=svm_model(), support_rows=np.zeros((2, 3))),
    TrainOutput: lambda: TrainOutput(
        artifact={}, support_rows=np.zeros((2, 3)), trace_header=[],
        trace_rows=[], summary={}),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_array_records_compare_and_hash(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert not a == b and a != b
    assert a == a
    assert len({a, b}) == 2 and a in [b, a] and b not in {a}


def test_every_array_record_is_covered():
    assert set(RECORDS) == {cls for cls in package_dataclasses()
                            if holds_arrays(cls)}


def test_config_records_keep_value_equality():
    assert TrainConfig(c_box=2.0) == TrainConfig(c_box=2.0)
    assert SynthSpec(seed=3) == SynthSpec(seed=3)
    assert hash(KernelConfig(gamma=0.5)) == hash(KernelConfig(gamma=0.5))
