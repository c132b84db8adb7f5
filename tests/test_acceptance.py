"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Tolerances are fixed here, not tuned.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from conftest import make_gen, oracle_error, random_orthonormal, random_rank_k

from sketchlr import (
    ExperimentConfig,
    HuberLoss,
    L1L2Loss,
    RandomStream,
    SparseMatrix,
    TrialRecord,
    TukeyPLoss,
    apply_countsketch_left,
    build_countsketch,
    cpe_constant,
    diagnose_kyfan_preservation,
    emit_csv,
    exact_oracle,
    load_matrix,
    make_sketch_plan,
    phi_objective,
    read_trials_csv,
    run_experiment,
    schatten_norm,
    singular_values,
    solve_schatten,
    svd,
    summarize,
)
from sketchlr.sketches import apply_row_sampler, build_row_sampler

DATA = Path(__file__).parent / "data"
P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_c01_golden_spectrum():
    res = svd(np.array([[20.0, 20.0], [1.0, 2.0]]))
    dev = float(np.max(np.abs(res.sigma - np.array([28.3637, 0.7051]))))
    _verdict(
        "C1 golden spectrum",
        dev <= 1e-4,
        f"sigma={np.round(res.sigma, 5)}, max dev {dev:.2e} <= 1e-4",
    )


def test_c02_exact_rank_k_recovery():
    gen = make_gen(2024)
    stream = RandomStream(101)
    worst = 0.0
    for _ in range(20):
        m = int(gen.integers(30, 201))
        n = int(gen.integers(15, 151))
        k = min(int(gen.integers(1, 11)), min(m, n) - 1)
        a = SparseMatrix.from_dense(random_rank_k(gen, m, n, k))
        for p in P_GRID:
            rep = solve_schatten(a, k, p, 0.5, stream)
            worst = max(worst, oracle_error(a, rep, p))
    _verdict(
        "C2 exact rank-k recovery",
        worst <= 1e-6,
        f"worst relative error {worst:.2e} over 20 matrices x {len(P_GRID)} orders",
    )


def test_c03_table1_desk_scale_analogue():
    cfg = ExperimentConfig(
        k_list=[5, 10],
        p=1.0,
        eps=0.5,
        trials=50,
        seed=7,
        mode="simplified_experiment",
        oracle=True,
        nrows=500,
        ncols=500,
        density=0.05,
    )
    _, summary = run_experiment(cfg)
    med = {(r.k, r.algo): r.median_rel_error for r in summary}
    e1_k5 = med[(5, "schatten_p")]
    e1_k10 = med[(10, "schatten_p")]
    e2_k5 = med[(5, "frobenius_baseline")]
    ok = e1_k5 <= 0.05 and e1_k10 <= 0.05 and e1_k5 <= e2_k5
    _verdict(
        "C3 synthetic ensemble medians",
        ok,
        f"median e1: k5={e1_k5:.4f}, k10={e1_k10:.4f} (<=0.05); "
        f"directional at k=5: {e1_k5:.4f} <= {e2_k5:.4f}",
    )


def test_c04_mirsky_oracle_beats_random_projections():
    gen = make_gen(404)
    worst_gap = np.inf
    for _ in range(20):
        a = gen.standard_normal((12, 10))
        k = int(gen.integers(1, 5))
        oracle = exact_oracle(SparseMatrix.from_dense(a), k)
        resid = a - oracle.factors.y @ oracle.factors.z.T
        opts = {p: schatten_norm(singular_values(resid), p) for p in P_GRID}
        for _ in range(500):
            q = random_orthonormal(gen, 10, k)
            sig = singular_values(a - (a @ q) @ q.T)
            for p in P_GRID:
                cand = schatten_norm(sig, p)
                worst_gap = min(worst_gap, cand - opts[p])
                assert opts[p] <= cand + 1e-9
    _verdict(
        "C4 Mirsky optimality",
        worst_gap >= -1e-9,
        f"20 matrices x 500 projections x {len(P_GRID)} orders, "
        f"closest candidate gap {worst_gap:.2e}",
    )


def test_c05_elementary_inequality_grid():
    violations = 0
    points = 0
    for p in (1.5, 2.0, 3.0):
        for eps in (0.1, 0.5, 1.0):
            c = cpe_constant(p, eps)
            x = np.linspace(eps, 1.0, round((1.0 - eps) / 0.01) + 1)
            up = (1 + x) ** p - (1 + c * x**p)
            dn = (1 - c * x**p) - (1 - x) ** p
            violations += int(np.sum(up > 1e-12)) + int(np.sum(dn > 1e-12))
            points += 2 * x.size
    _verdict(
        "C5 elementary inequality grid",
        violations == 0,
        f"{violations} violations over {points} grid evaluations",
    )


def test_c06_countsketch_concentration():
    gen = make_gen(99)
    eps = 0.25
    r = math.ceil(4.0 / eps**2)
    stream = RandomStream(1234)
    hits = 0
    for _ in range(100):
        a = gen.standard_normal((100, 20))
        a /= np.linalg.norm(a)
        b = gen.standard_normal((100, 20))
        b /= np.linalg.norm(b)
        op = build_countsketch(100, r, stream)
        ra = apply_countsketch_left(a, op)
        rb = apply_countsketch_left(b, op)
        hits += np.linalg.norm(ra.T @ rb - a.T @ b) <= eps
    _verdict(
        "C6 CountSketch concentration",
        hits >= 90,
        f"{hits}/100 seeds within eps={eps} at r={r}",
    )


def test_c07_column_sampler_psd_sandwich():
    eps, eta, k = 0.5, 0.1, 5
    stream = RandomStream(888)
    hits = 0
    for t in range(100):
        g = make_gen(3000 + t)
        a = g.standard_normal((120, 20)) @ g.standard_normal((20, 100)) / np.sqrt(20)
        a += 0.05 * g.standard_normal((120, 100))
        # a column sample of A is a row sample of A^T
        at = a.T
        sk = build_row_sampler(at, k, eps, eta, stream)
        c = apply_row_sampler(at, sk).to_dense().T
        sig = singular_values(a)
        slack = eta * float(np.sum(sig[k:] ** 2))
        aat = a @ a.T
        cct = c @ c.T
        eye = np.eye(a.shape[0])
        ok_up = np.linalg.eigvalsh((1 + eps) * aat + slack * eye - cct).min() >= -1e-8
        ok_dn = np.linalg.eigvalsh(cct - (1 - eps) * aat + slack * eye).min() >= -1e-8
        hits += ok_up and ok_dn
    _verdict(
        "C7 additive-multiplicative PSD sandwich",
        hits >= 90,
        f"{hits}/100 seeds on 120x100 rank-20-plus-noise (k={k}, eps={eps}, eta={eta})",
    )


def test_c08_sketched_regression_bound():
    gen = make_gen(808)
    stream = RandomStream(999)
    hits = 0
    for _ in range(100):
        a = gen.standard_normal((60, 40))
        z = random_orthonormal(gen, 40, 5)
        # min_Y ||(A - Y Z^T) R||_F for a CountSketch R: Y^T = (R^T Z)^+ R^T A^T
        op = build_countsketch(40, 400, stream)
        rz = apply_countsketch_left(z, op)
        yhat = np.linalg.lstsq(rz, apply_countsketch_left(a.T, op), rcond=None)[0].T
        lhs = np.linalg.norm(a @ z - yhat)
        rhs = 0.25 * np.linalg.norm(a - (a @ z) @ z.T)
        hits += lhs <= rhs
    _verdict(
        "C8 sketched regression bound",
        hits >= 90,
        f"{hits}/100 seeds with ||AZ - Yhat||_F <= 0.25 ||A - AZZ^T||_F at r=400",
    )


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_c09_kyfan_preservation(p):
    gen = make_gen(int(900 + p))
    a = SparseMatrix.from_dense(gen.standard_normal((100, 80)))
    k, eps = 5, 0.5
    plan = make_sketch_plan(100, 80, k, eps, p)
    sampler = build_row_sampler(a, k, eps, plan.eta1, RandomStream(71))
    sa = apply_row_sampler(a, sampler)
    rep = diagnose_kyfan_preservation(
        a, sa, k, p, plan.r_kyfan, plan.eta1, 200, RandomStream(72), eps=eps
    )
    _verdict(
        f"C9 Ky-Fan head preservation (p={p:g})",
        rep.violation_fraction <= 0.1,
        f"violation fraction {rep.violation_fraction:.3f} over {rep.trials} projections",
    )


def test_c10_generalized_losses():
    from sketchlr import solve_generalized

    stream = RandomStream(555)
    worst = {}
    for loss in (HuberLoss(1.0), TukeyPLoss(2.0, 2.0), L1L2Loss()):
        ratio = 0.0
        for i in range(10):
            g = make_gen(5000 + i)
            a = SparseMatrix.from_dense(g.standard_normal((80, 60)))
            rep = solve_generalized(a, 5, loss, 0.5, stream)
            dense = a.to_dense()
            num = phi_objective(
                singular_values(dense - rep.factors.y @ rep.factors.z.T), loss
            )
            den = phi_objective(exact_oracle(a, 5).spectrum[5:], loss)
            ratio = max(ratio, num / den)
        worst[loss.describe()] = ratio
    ok = all(v <= 1.5 for v in worst.values())
    detail = ", ".join(f"{name}: {v:.4f}" for name, v in worst.items())
    _verdict("C10 generalized losses within 1.5x", ok, detail)


def test_c11_nnz_proportional_counters():
    n = 400
    k = 6
    stream_seeds = (1, 2, 3)
    targets = (10_000, 20_000, 40_000)
    sketch_ratios = []
    dims_counts = []
    for seed, target in zip(stream_seeds, targets):
        cfg_stream = RandomStream(seed)
        a = None
        from sketchlr import generate_synthetic

        a = generate_synthetic(n, n, target / (n * n), cfg_stream)
        rep = solve_schatten(
            a, k, 1.0, 0.5, RandomStream(7), "simplified_experiment"
        )
        counts = rep.multiply_add_counts
        # sketch stages must be exact multiples of nnz
        assert counts["s_apply"] == a.nnz
        assert counts["regression"] == a.nnz * k
        sketch_ratios.append((counts["s_apply"] + counts["regression"]) / a.nnz)
        dims_counts.append(counts["wsa"])
    spread = (max(sketch_ratios) - min(sketch_ratios)) / min(sketch_ratios)
    dims_constant = len(set(dims_counts)) == 1
    _verdict(
        "C11 nnz-proportional sketch counters",
        spread <= 0.01 and dims_constant,
        f"per-nnz ratio spread {spread:.2e} over nnz={targets}, "
        f"dims-dependent count constant: {dims_constant} ({dims_counts[0]})",
    )


def test_c12_determinism_and_io(tmp_path):
    gen = make_gen(1212)
    a = SparseMatrix.from_dense(gen.standard_normal((40, 30)))
    r1 = solve_schatten(a, 3, 1.0, 0.5, RandomStream(77))
    r2 = solve_schatten(a, 3, 1.0, 0.5, RandomStream(77))
    bit_identical = (
        r1.factors.y.tobytes() == r2.factors.y.tobytes()
        and r1.factors.z.tobytes() == r2.factors.z.tobytes()
        and r1.seeds == r2.seeds
    )

    records = [
        TrialRecord(2, i, algo, 0.01 * (i + 1), 1.25, 99 + i, False)
        for i in range(3)
        for algo in ("schatten_p", "frobenius_baseline")
    ]
    emit_csv(records, summarize(records), tmp_path / "io")
    back = read_trials_csv(tmp_path / "io.trials.csv")
    round_trip = sorted(
        (r.k, r.trial_index, r.algo, r.rel_error, r.seed) for r in records
    ) == sorted((r.k, r.trial_index, r.algo, r.rel_error, r.seed) for r in back)

    bow = load_matrix(DATA / "tiny_bow.txt", "bag_of_words_triplets")
    rows, cols, vals = bow.triplets()
    bow_exact = (
        bow.shape == (4, 3)
        and rows.tolist() == [0, 0, 1, 2, 3]
        and cols.tolist() == [0, 2, 1, 0, 2]
        and vals.tolist() == [2.0, 1.0, 5.0, 1.0, 3.0]
    )
    ok = bit_identical and round_trip and bow_exact
    _verdict(
        "C12 determinism and I/O",
        ok,
        f"bit-identical={bit_identical}, csv round-trip={round_trip}, "
        f"bag-of-words fixture exact={bow_exact}",
    )
