"""Result records are immutable NamedTuples; only validating value types and SuiteResult are
dataclasses, which generate their methods at import."""

import dataclasses
import importlib
import inspect
import pkgutil

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
    tuples.TruncatedShifts, tuples.ShiftNormBound,
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


def test_the_only_dataclasses_validate_or_are_mutated():
    # each dataclass generates and compiles its methods at import, which every
    # `cnplab run` pays; a new record is a NamedTuple
    found = set()
    for info in pkgutil.iter_modules(cnplab.__path__, "cnplab."):
        module = importlib.import_module(info.name)
        found |= {obj for _, obj in inspect.getmembers(module, inspect.isclass)
                  if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)}
    assert found == {coeffs.KernelSpec, coeffs.CoeffTable, tuples.TruncationParams,
                     tuples.OperatorTuple, cli.SuiteResult}
