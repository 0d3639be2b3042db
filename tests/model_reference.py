"""Dense reference for the existence test of cnplab.model.

`dense_associated_tuple` compresses the Kronecker-product shifts M_i x I to
Ker V^* as dense matrices, A_i = K^* (M_i x I) K, and `dense_existence` runs
the contractivity test on that tuple with `cnplab.defect`.  The package sums
the same defect on the model space by the projected sigma-recursion and never
forms A, so differential tests can compare the two.  `dense_intertwining`
pushes a big_dim identity through the tensored shifts to form M^alpha x I,
where the package gathers the adjoint shifts on the columns of V.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import cnplab as cl
from cnplab._linalg import opnorm, split_rank
from cnplab.tuples import COMMUTATOR_TOL
from series_reference import tuple_power


def dense_associated_tuple(v):
    """(K, A, invariance residual) for the dilation v.

    K is an orthonormal basis of Ker V^*, A the OperatorTuple K^* (M_i x I) K
    with commutators checked at ten times the invariance residual, which is
    the norm of (I - K K^*)(M_i x I) K on rows of degree <= N - 1.
    """
    r = v.codomain_dims[1]
    u, svals, _ = np.linalg.svd(v.matrix, full_matrices=True)
    k = u[:, split_rank(svals):]
    interior = np.array([sum(beta) <= v.N - 1 for beta in v.indices for _ in range(r)])
    mats, inv_res = [], 0.0
    for m in v.shifts.ops.mats:
        mk = np.kron(m, np.eye(r)) @ k
        compressed = k.conj().T @ mk
        inv_res = max(inv_res, opnorm((mk - k @ compressed)[interior]))
        mats.append(compressed)
    ops = cl.OperatorTuple(tuple(mats), commutator_tol=max(COMMUTATOR_TOL, 10.0 * inv_res))
    return k, ops, inv_res


def dense_existence(v, n=None):
    """(ContractionVerdict, DefectData, unit witness) of the dense associated tuple.

    The defect is summed through degree n, by default N + tail_window as in
    the existence test; the witness is K times the eigenvector of the
    smallest eigenvalue of the defect.
    """
    k, ops, _ = dense_associated_tuple(v)
    p = replace(v.params, N=v.params.N + v.params.tail_window if n is None else n)
    dd = cl.defect(ops, v.table, p)
    verdict = cl.is_contraction(ops, v.table, p, defect_data=dd)
    _, vecs = np.linalg.eigh(dd.delta_sq)
    return verdict, dd, k @ vecs[:, 0]


def dense_intertwining(v, alphas):
    """Max over alphas of |V^*(M^alpha x I) - T^alpha V^*| on the columns of degree <= N - |alpha|.

    M^alpha x I is formed as a big_dim x big_dim matrix by applying the
    tensored shifts to the identity, and T^alpha by matrix powers; an alpha
    with |alpha| > N is skipped.
    """
    r = v.codomain_dims[1]
    vstar = v.matrix.conj().T
    worst = 0.0
    for alpha in alphas:
        alpha = tuple(int(x) for x in alpha)
        if sum(alpha) > v.N:
            continue
        big_m = np.eye(v.big_dim, dtype=complex)
        for i, power in enumerate(alpha):
            for _ in range(power):
                big_m = v.tensored.apply(i, big_m)
        keep = [j * r + k for j, beta in enumerate(v.indices)
                if sum(beta) <= v.N - sum(alpha) for k in range(r)]
        diff = (vstar @ big_m - tuple_power(v.ops, alpha) @ vstar)[:, keep]
        worst = max(worst, opnorm(diff))
    return worst
