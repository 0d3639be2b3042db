"""Shared example tuples and coefficient tables for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import cnplab as cl
from series_reference import dense_shifts


@dataclass(frozen=True)
class Example:
    name: str
    kernel: cl.KernelSpec
    ops: cl.OperatorTuple
    p: cl.TruncationParams
    table_n: int

    def table(self):
        return cl.build_table(self.kernel, self.table_n)


def nilpotent_pair() -> cl.OperatorTuple:
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return cl.OperatorTuple((0.4 * e12, 0.3 * e12))


def scaled_jordan(scale: float, size: int = 3) -> cl.OperatorTuple:
    return cl.OperatorTuple((scale * np.eye(size, k=1).astype(complex),))


def compressed_shifts(spec: cl.KernelSpec, degree: int, table_n: int) -> cl.OperatorTuple:
    table = cl.build_table(spec, table_n)
    return dense_shifts(table, degree)


def _pure_examples() -> list[Example]:
    out = [
        Example("zero C1 / szego", cl.szego(), cl.OperatorTuple.zero(1, 1),
                cl.TruncationParams(N=20), 90),
        Example("zero C2 / drury-arveson d2", cl.drury_arveson(2), cl.OperatorTuple.zero(2, 2),
                cl.TruncationParams(N=8), 90),
        Example("zero C3 / dirichlet", cl.dirichlet_t(1.0), cl.OperatorTuple.zero(3, 1),
                cl.TruncationParams(N=40), 90),
        Example("scalar szego 0.3", cl.szego(), cl.OperatorTuple.from_scalars(0.3),
                cl.TruncationParams(N=40), 90),
        Example("scalar szego 0.5", cl.szego(), cl.OperatorTuple.from_scalars(0.5),
                cl.TruncationParams(N=60), 90),
        Example("scalar szego 0.9", cl.szego(), cl.OperatorTuple.from_scalars(0.9),
                cl.TruncationParams(N=100), 110),
        Example("nilpotent pair / drury-arveson d2", cl.drury_arveson(2), nilpotent_pair(),
                cl.TruncationParams(N=8), 90),
        Example("scaled jordan / szego", cl.szego(), scaled_jordan(0.7),
                cl.TruncationParams(N=12), 90),
        Example("scaled jordan / dirichlet", cl.dirichlet_t(1.0), scaled_jordan(0.9),
                cl.TruncationParams(N=12), 90),
        Example("compressed dirichlet shift deg 3", cl.dirichlet_t(1.0),
                compressed_shifts(cl.dirichlet_t(1.0), 3, 10),
                cl.TruncationParams(N=16), 90),
        Example("compressed szego shift deg 4", cl.szego(),
                compressed_shifts(cl.szego(), 4, 10),
                cl.TruncationParams(N=16), 90),
    ]
    return out


def _bergman_examples() -> list[Example]:
    return [
        Example("zero C1 / bergman 2", cl.bergman(2), cl.OperatorTuple.zero(1, 1),
                cl.TruncationParams(N=16), 40),
        Example("compressed bergman-2 shift deg 0", cl.bergman(2),
                compressed_shifts(cl.bergman(2), 0, 4),
                cl.TruncationParams(N=12), 40),
        Example("compressed bergman-3 shift deg 1", cl.bergman(3),
                compressed_shifts(cl.bergman(3), 1, 4),
                cl.TruncationParams(N=12), 40),
    ]


def _charfn_examples() -> list[Example]:
    return [
        Example("zero C1 / szego", cl.szego(), cl.OperatorTuple.zero(1, 1),
                cl.TruncationParams(N=20), 90),
        Example("zero C1 / drury-arveson d2", cl.drury_arveson(2), cl.OperatorTuple.zero(1, 2),
                cl.TruncationParams(N=8), 90),
        Example("scalar szego 0.3", cl.szego(), cl.OperatorTuple.from_scalars(0.3),
                cl.TruncationParams(N=80), 90),
        Example("scalar szego 0.5", cl.szego(), cl.OperatorTuple.from_scalars(0.5),
                cl.TruncationParams(N=80), 90),
        Example("scalar dirichlet 0.5", cl.dirichlet_t(1.0), cl.OperatorTuple.from_scalars(0.5),
                cl.TruncationParams(N=60), 90),
        Example("nilpotent pair / drury-arveson d2", cl.drury_arveson(2), nilpotent_pair(),
                cl.TruncationParams(N=8), 90),
    ]


@pytest.fixture(scope="session")
def pure_examples():
    return _pure_examples()


@pytest.fixture(scope="session")
def existence_examples():
    return _pure_examples() + _bergman_examples()


@pytest.fixture(scope="session")
def charfn_examples():
    return _charfn_examples()


@pytest.fixture(scope="session")
def tables():
    """One coefficient table per built-in rule, generously sized."""
    specs = {
        "szego": cl.szego(),
        "drury_arveson_2": cl.drury_arveson(2),
        "bergman_2": cl.bergman(2),
        "bergman_3": cl.bergman(3),
        "dirichlet_1": cl.dirichlet_t(1.0),
    }
    return {name: cl.build_table(spec, 90) for name, spec in specs.items()}
