"""Result records are immutable NamedTuples and the value types that check their fields are
read-only __slots__ classes: no class in cnplab is a dataclass, which generates its methods at
import."""

import copy
import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import cnplab
from cnplab import charfn, cli, coeffs, model, tuples

RECORDS = [
    charfn.CalculusResult, charfn.TupleLift, charfn.CharFnEval, charfn.MultiplierReport,
    charfn.ModelReport,
    coeffs.CnpClassification, coeffs.KernelValue, coeffs.RadiusEstimate,
    model.DilationMap, model.FactorabilityReport, model.AssociatedTuple, model.ExistenceReport,
    model.CounterexamplePoint,
    tuples.DefectData, tuples.ContractionVerdict, tuples.PurityVerdict, tuples.IndexShifts,
    tuples.TruncatedShifts,
    cli.RunConfig,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_and_copied_with_replace(record):
    values = tuple(f"value {i}" for i in range(len(record._fields)))
    rec = record(*values)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, "changed")
    assert rec == values
    for i, name in enumerate(record._fields):
        copy = rec._replace(**{name: "changed"})
        assert type(copy) is record
        assert copy == values[:i] + ("changed",) + values[i + 1:]
        assert rec == values


VALUE_TYPES = {
    "KernelSpec": lambda: coeffs.KernelSpec(2, "bergman", 3),
    "CoeffTable": lambda: coeffs.build_table(coeffs.dirichlet_t(0.5), 6),
    "TruncationParams": lambda: tuples.TruncationParams(12, tol=1e-8, tail_window=2),
    "OperatorTuple": lambda: tuples.OperatorTuple.from_scalars(0.5, 0.25j),
}


@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_value_types_are_read_only(make):
    value = make()
    for name in type(value).__slots__:
        kept = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, "changed")
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is kept
    with pytest.raises(AttributeError):
        value.extra = "new"
    assert not hasattr(value, "__dict__")
    copied = copy.copy(value)  # through the constructor, which checks the fields again
    assert type(copied) is type(value) and repr(copied) == repr(value)


def test_value_type_arrays_are_read_only():
    table = coeffs.CoeffTable(coeffs.szego(), [1.0, 1.0, 1.0], np.array([0.0, 1.0, 0.0]))
    ops = tuples.OperatorTuple(([[0.5]], np.array([[0.25]])))
    for arr in (table.a, table.b, *ops.mats):
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 2.0
    assert table.a.dtype == table.b.dtype == float
    assert all(m.dtype == complex for m in ops.mats)


@pytest.mark.parametrize("coeffs_in", [[1, 0.5, 0.25], (1.0, 0.5, 0.25), np.array([1, 0.5, 0.25])],
                         ids=["list", "tuple", "array"])
def test_custom_kernel_stores_its_coefficients_as_a_tuple(coeffs_in):
    spec = coeffs.KernelSpec(d=2, rule="custom", param=coeffs_in)
    assert type(spec.param) is tuple and spec.param == (1.0, 0.5, 0.25)
    assert all(type(c) is float for c in spec.param)
    assert spec.label == "custom"


def test_value_types_compare_and_print_by_field_values():
    spec = coeffs.KernelSpec(1, "szego")
    assert repr(spec) == "KernelSpec(d=1, rule='szego', param=None, label='szego')"
    assert spec == coeffs.szego() and hash(spec) == hash(coeffs.szego())
    assert spec != coeffs.KernelSpec(1, "szego", label="s") and spec != coeffs.drury_arveson(1)
    p = tuples.TruncationParams(8, tail_window=2)
    assert p == tuples.TruncationParams(N=8, tol=1e-9, tail_window=2) == copy.deepcopy(p)
    assert p != tuples.TruncationParams(8) and p != (8, 1e-9, 2)
    assert len({p, tuples.TruncationParams(8, 1e-9, 2)}) == 1


def test_no_class_in_cnplab_is_a_dataclass():
    # each dataclass generates and compiles its methods at import, which every
    # `cnplab run` pays; a new record is a NamedTuple, a checked value type a ValueType
    found = set()
    for info in pkgutil.iter_modules(cnplab.__path__, "cnplab."):
        module = importlib.import_module(info.name)
        found |= {obj for _, obj in inspect.getmembers(module, inspect.isclass)
                  if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)}
    assert found == set()


def test_importing_the_cli_loads_no_dataclasses_copy_or_traceback():
    # each `cnplab run` is a fresh process; what numpy and json load is theirs, and importing
    # cnplab.cli after them must add none of these (traceback loads when a suite crashes)
    code = ("import json, sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import cnplab.cli\n"
            "print(sorted({'dataclasses', 'copy', 'traceback'} & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
