"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import time

import numpy as np

import cnplab as cl

from model_reference import dense_check_factorability, reports_agree
from series_reference import tensored_shifts
from test_coeffs import long_division_reciprocal


def criterion(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


ALL_BUILTINS = [
    cl.szego(),
    cl.drury_arveson(1), cl.drury_arveson(2), cl.drury_arveson(3),
    cl.bergman(2), cl.bergman(3), cl.bergman(4),
    cl.dirichlet_t(0.0), cl.dirichlet_t(0.5), cl.dirichlet_t(1.0), cl.dirichlet_t(2.0),
]


def test_criterion_1_roundtrip():
    start = time.perf_counter()
    worst = 0.0
    for spec in ALL_BUILTINS:
        table = cl.build_table(spec, 60)
        for k in range(1, 61):
            conv = table.a[k] - np.dot(table.b[1:k + 1], table.a[:k][::-1])
            worst = max(worst, abs(conv))
    elapsed = time.perf_counter() - start
    criterion(1, "coefficient inversion round trip at N=60",
              worst <= 1e-12 and elapsed < 1.0,
              f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_cnp_classification():
    start = time.perf_counter()
    ok = True
    notes = []
    for spec in ALL_BUILTINS:
        table = cl.build_table(spec, 60)
        cls = cl.is_cnp(table, 30)
        if spec.rule == "bergman":
            m = spec.param
            good = (not cls.consistent and cls.first_failure == 2
                    and abs(cls.value + m * (m - 1) / 2.0) <= 1e-12)
        else:
            good = cls.consistent
        ok = ok and good
        if not good:
            notes.append(f"{spec.label}: {cls.describe()}")
        # independent reciprocal oracle: naive long division
        recip = long_division_reciprocal(table.a, 60)
        oracle_gap = float(np.max(np.abs(table.b[1:] + recip[1:])))
        ok = ok and oracle_gap <= 1e-12
        if oracle_gap > 1e-12:
            notes.append(f"{spec.label}: oracle gap {oracle_gap:.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    criterion(2, "CNP classification with long-division oracle",
              ok, "; ".join(notes) or f"{elapsed:.2f}s")


def test_criterion_3_counterexample():
    start = time.perf_counter()
    ok = True
    for m in (2, 3, 4):
        for point in cl.bergman_counterexample(m, (0, 1, 2, 3)):
            ok = ok and point.match_error <= 1e-12 and point.closed_form < 0.0
    [instance] = cl.bergman_counterexample(2, [0])
    ok = ok and abs(instance.bound_value - 4.0 / 3.0) <= 1e-12 and instance.bound_value > 1.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    criterion(3, "generalized Bergman counterexample, (m, N) in {2,3,4} x {0..3}",
              ok, f"{elapsed:.2f}s")


def test_criterion_4_dilation_isometry(pure_examples):
    start = time.perf_counter()
    ok = True
    notes = []
    for ex in pure_examples:
        table = ex.table()
        purity = cl.is_pure(ex.ops, table, ex.p)
        v = cl.build_dilation(ex.ops, table, ex.p)
        d = ex.kernel.d
        alphas = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
        alphas += [tuple(2 if i == j else 0 for i in range(d)) for j in range(d)]
        alphas.append(tuple(3 if i == 0 else 0 for i in range(d)))
        if d >= 2:
            alphas.append(tuple(1 if i < 2 else 0 for i in range(d)))
        inter = cl.check_intertwining(v, alphas)
        good = (purity.status == "pure" and purity.residual <= 1e-9
                and v.isometry_defect <= 1e-8 and inter <= 1e-8)
        ok = ok and good
        if not good:
            notes.append(f"{ex.name}: purity {purity.residual:.1e} "
                         f"iso {v.isometry_defect:.1e} int {inter:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    criterion(4, "dilation isometry and intertwining on the pure example set",
              ok, "; ".join(notes) or f"{len(pure_examples)} examples, {elapsed:.1f}s")


def test_criterion_5_existence_equivalence(existence_examples):
    start = time.perf_counter()
    ok = True
    notes = []
    for ex in existence_examples:
        table = ex.table()
        v = cl.build_dilation(ex.ops, table, ex.p)
        report = cl.admits_charfn(v)
        r = v.codomain_dims[1]
        x = np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T
        tensored = tensored_shifts(v.table, v.N, r)
        p_series = cl.TruncationParams(N=ex.p.N + ex.p.tail_window, tol=ex.p.tol,
                                       tail_window=ex.p.tail_window)
        fact = cl.check_factorability(v.matrix, v.tensored, table, ex.p.tol)
        ref = dense_check_factorability(x, tensored, table, p_series)
        decided = report.status in ("admits", "does_not_admit") \
            and fact.verdict in ("factorable", "not_factorable")
        agree = (report.status == "admits") == (fact.verdict == "factorable")
        # the prefix-summed check against the dense reference
        agree = agree and (fact.verdict, fact.failed_condition) == \
            (ref.verdict, ref.failed_condition) and reports_agree(fact, ref)
        if ex.kernel.rule == "bergman":
            agree = agree and report.status == "does_not_admit"
        ok = ok and decided and agree
        if not (decided and agree):
            notes.append(f"{ex.name}: {report.status} vs {fact.verdict}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    criterion(5, "existence test agrees with factorability of I - V V*",
              ok, "; ".join(notes) or f"{len(existence_examples)} examples, {elapsed:.1f}s")


def test_criterion_6_charfn_identities(charfn_examples):
    start = time.perf_counter()
    ok = True
    notes = []
    for ex in charfn_examples:
        table = ex.table()
        lift = cl.build_lift(cl.build_dilation(ex.ops, table, ex.p))
        d = ex.kernel.d
        ez = cl.charfn_eval(lift, cl.ball_points(d, 20, seed=101))
        ew = cl.charfn_eval(lift, cl.ball_points(d, 20, seed=102))
        i1 = cl.verify_defect_identity(lift, ez, ew).max()
        mult = cl.verify_multiplier(lift, cl.charfn_eval(lift, cl.ball_points(d, 5, seed=103)))
        model = cl.verify_model(lift)
        norms = cl.charfn_eval(lift, cl.ball_points(d, 100, seed=104)).norm.max()
        good = (i1 <= 1e-8
                and mult.gram_min_eig >= -1e-9
                and mult.vv_identity_residual <= 1e-7
                and model.compression_residual <= 1e-7
                and model.factor_residual <= 1e-7
                and norms <= 1.0 + 1e-8)
        ok = ok and good
        if not good:
            notes.append(f"{ex.name}: i1 {i1:.1e} gram {mult.gram_min_eig:.1e} "
                         f"model {model.factor_residual:.1e} norm {norms:.9f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    criterion(6, "characteristic-function identities on the example set",
              ok, "; ".join(notes) or f"{len(charfn_examples)} examples, {elapsed:.1f}s")


def test_criterion_7_classical_reduction():
    start = time.perf_counter()
    table = cl.build_table(cl.szego(), 102)
    p = cl.TruncationParams(N=100)
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        t_val = float(rng.uniform(-0.95, 0.95))
        z = complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.4, 0.4))
        t = cl.OperatorTuple.from_scalars(t_val)
        lift = cl.build_lift(cl.build_dilation(t, table, p))
        theta = cl.charfn_eval(lift, [[z]]).theta[0]
        mobius = (z - t_val) / (1.0 - t_val * z)
        worst = max(worst, abs(theta[0, 0] - mobius))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    criterion(7, "scalar reduction matches the Mobius function at N=100",
              ok, f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_8_operator_level_probe():
    start = time.perf_counter()
    ok = True
    notes = []
    for spec in ALL_BUILTINS:
        table = cl.build_table(spec, 40)
        probe = cl.cnp_zero_tuple_probe(table, 30)
        cls = cl.is_cnp(table, 30)
        for k, n in enumerate(range(2, 31)):
            coeff_negative = table.b[n] < -1e-12
            probe_negative = probe[k] < -1e-12
            if coeff_negative != probe_negative:
                ok = False
                notes.append(f"{spec.label} at n={n}")
        probe_says_cnp = not np.any(probe < -1e-12)
        if probe_says_cnp != cls.consistent:
            ok = False
            notes.append(f"{spec.label}: verdict mismatch")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    criterion(8, "operator-level probe matches the coefficient classifier",
              ok, "; ".join(notes) or f"{elapsed:.2f}s")
