"""Acceptance suite: one test per criterion, one printed verdict line each.

Each criterion gathers its sub-checks, prints a single PASS/FAIL line (run
pytest with -s to see the lines for passing criteria too), and only then
asserts, so the verdict line is emitted whatever the outcome.

Criterion 9 checks the k=5 memory counts as exact values, not as
reductions: at n=2, k=5 the tt and ht formats are in their overhead regime.
An exact train's ranks are the sequential unfolding ranks, so the symmetric
scheme's ranks 2,3,3,2 force sum r_{p-1}*2*r_p = TT=50, and the node ranks
2,3,3,3 of build_tree(5) give HT=71, against full=32; the low-rank schemes
at rank cap 2 need TT=32 and HT=48.  The expected counts are computed from
the generic unfolding ranks; the reduction bounds apply at k=10 and k=15,
and params/2^k must fall over k=5, 10, 15.
"""

import itertools
import math

import numpy as np

from hpdstensor import serialize
from hpdstensor import tensor_core as tc
from hpdstensor.analysis import (controllability_full, controllability_ht,
                                 controllability_tt, gradient_sum,
                                 lift_operator, observability_full,
                                 observability_ht, observability_tt)
from hpdstensor.benchmarks import (SCHEMES, gen_instance, memory_report,
                                   timing_report)
from hpdstensor.cli import run
from hpdstensor.hier_tucker import (build_tree, htd_decompose,
                                    htd_reconstruct)
from hpdstensor.kernels import compact_svd, numerical_rank, subspace_equal
from hpdstensor.model import (HpdsModel, SampleSet, add_noise,
                              eval_derivative, simulate_discrete)
from hpdstensor.randomness import generator
from hpdstensor.sysid import (check_identifiability_io, identify_full,
                              identify_ht, identify_io, identify_io_noisy,
                              identify_tt, required_rank)
from hpdstensor.tensor_train import tt_decompose, tt_reconstruct


def verdict(number: int, label: str, ok: bool) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}  {label}")
    return ok


def exact_samples(tensor, t_count, seed):
    n = tensor.shape[0]
    x0 = generator(seed).random((n, t_count)) * 2.0 - 1.0
    model = HpdsModel(tensor.ndim, n, tensor)
    x1 = np.column_stack([eval_derivative(model, x0[:, i])
                          for i in range(t_count)])
    return SampleSet(tau=0.01, X0=x0, X1=x1)


def test_criterion_01_rank_condition_identity():
    ok = True
    for n in range(1, 9):
        for k in range(2, 9):
            brute = sum(1 for _ in itertools.combinations_with_replacement(
                range(n), k - 1))
            ok &= required_rank(n, k) == brute == math.comb(n + k - 2, k - 1)
    assert verdict(1, "required_rank == multiset count == C(n+k-2,k-1) "
                      "for n<=8, k<=8", ok)


def test_criterion_02_exact_autonomous_recovery():
    n, k = 3, 3
    truth = tc.almost_symmetrize(generator(11).random((n,) * k) * 2 - 1)
    samples = exact_samples(truth, required_rank(n, k) + 5, 12)
    model = identify_full(samples, k)
    rel = np.linalg.norm(model.dynamics - truth) / np.linalg.norm(truth)
    ok = rel <= 1e-8 and tc.is_almost_symmetric(model.dynamics, 1e-8)
    assert verdict(2, f"full recovery rel err {rel:.2e} <= 1e-8, "
                      "almost symmetric at 1e-8", ok)


def test_criterion_03_pipeline_equivalence():
    n, k = 3, 3
    truth = tc.almost_symmetrize(generator(21).random((n,) * k) * 2 - 1)
    samples = exact_samples(truth, required_rank(n, k) + 5, 22)
    full = identify_full(samples, k)
    tt_model = identify_tt(samples, k)
    ht_model = identify_ht(samples, k)
    scale = np.linalg.norm(full.dynamics)
    err_tt = np.linalg.norm(tt_reconstruct(tt_model.dynamics)
                            - full.dynamics) / scale
    err_ht = np.linalg.norm(htd_reconstruct(ht_model.dynamics)
                            - full.dynamics) / scale
    # representation round trips on the recovered tensor
    rt_tt = np.linalg.norm(tt_reconstruct(tt_decompose(full.dynamics))
                           - full.dynamics) / scale
    rt_ht = np.linalg.norm(htd_reconstruct(htd_decompose(full.dynamics))
                           - full.dynamics) / scale
    ok = err_tt <= 1e-8 and err_ht <= 1e-8 and rt_tt <= 1e-10 and rt_ht <= 1e-10
    assert verdict(3, f"tt/ht pipelines match full ({err_tt:.1e}, {err_ht:.1e})"
                      f" <= 1e-8; round trips ({rt_tt:.1e}, {rt_ht:.1e})"
                      " <= 1e-10", ok)


def io_system(seed, n=3, k=3, m=2, l=4):
    g = generator(seed)
    truth = tc.almost_symmetrize(g.random((n,) * k) * 2 - 1)
    b = 0.3 * (g.random((n, m)) * 2 - 1)
    c, _ = np.linalg.qr(g.random((l, n)) * 2 - 1)
    return HpdsModel(k, n, truth, B=b, C=c)


def test_criterion_04_io_recovery():
    n, k, m, l = 3, 3, 2, 4
    truth_model = io_system(31, n, k, m, l)
    t_train = 3 * (required_rank(n, k) + m)
    held_out = 10
    g = generator(32)
    u = 0.1 * (g.random((m, t_train + held_out)) * 2 - 1)
    x0 = 0.3 * (g.random(n) * 2 - 1)
    reference = simulate_discrete(truth_model, x0, u=u, tau=0.05,
                                  steps=t_train + held_out)
    train_window = SampleSet(tau=0.05, X0=reference.X0[:, :t_train],
                             U0=reference.U0[:, :t_train],
                             Y0=reference.Y0[:, :t_train])
    positive = check_identifiability_io(train_window, k).satisfied
    fitted = identify_io(train_window, k)
    z0 = fitted.C.T @ reference.Y0[:, 0]
    replay = simulate_discrete(fitted, z0, u=u, tau=0.05,
                               steps=t_train + held_out)
    err = np.max(np.abs(replay.Y0[:, t_train:] - reference.Y0[:, t_train:]))

    zero_u = simulate_discrete(truth_model, x0, u=np.zeros((m, t_train)),
                               tau=0.05, steps=t_train)
    negative = not check_identifiability_io(zero_u, k).satisfied
    ok = positive and negative and err <= 1e-8
    assert verdict(4, f"io recovery: held-out output err {err:.2e} <= 1e-8; "
                      "rank condition positive and zero-input negative", ok)


def dissipative_io_model(seed, n=3, k=4, m=2, l=4):
    g = generator(seed)
    base = np.zeros((n,) * k)
    for i in range(n):
        for j in range(n):
            base[j, j, i, i] -= 1.0
    truth = tc.almost_symmetrize(base + 0.2 * (g.random((n,) * k) * 2 - 1))
    b = 0.4 * (g.random((n, m)) * 2 - 1)
    c, _ = np.linalg.qr(g.random((l, n)) * 2 - 1)
    return HpdsModel(k, n, truth, B=b, C=c)


def noisy_fit_error(seed, t_factor, sigma, noise_seed):
    model = dissipative_io_model(seed)
    n, k, m = model.n, model.k, model.B.shape[1]
    t_count = t_factor * (required_rank(n, k) + m)
    g = generator(seed + 1)
    u = 0.4 * (g.random((m, t_count)) * 2 - 1)
    x0 = 0.4 * (g.random(n) * 2 - 1)
    samples = simulate_discrete(model, x0, u=u, tau=0.05, steps=t_count)
    fitted = identify_io_noisy(add_noise(samples, sigma, seed=noise_seed), k)
    # align the state bases through C (orthogonal Procrustes) and compare
    m_align = fitted.C.T @ model.C
    uu, _, vt = np.linalg.svd(m_align)
    q = uu @ vt
    a_fit = tc.unfold(np.asarray(fitted.dynamics), {k})
    a_true = tc.unfold(np.asarray(model.dynamics), {k})
    kron_q = q.T
    for _ in range(k - 2):
        kron_q = np.kron(kron_q, q.T)
    return (np.linalg.norm(q @ a_fit @ kron_q - a_true)
            + np.linalg.norm(q @ fitted.B - model.B)
            + np.linalg.norm(fitted.C @ q.T - model.C))


def test_criterion_05_noisy_consistency():
    err_small = noisy_fit_error(41, t_factor=6, sigma=1e-3, noise_seed=5)
    err_large = noisy_fit_error(41, t_factor=6, sigma=1e-2, noise_seed=5)
    sigma_ok = err_small < err_large

    short, long_ = [], []
    for seed in range(20):
        short.append(noisy_fit_error(500 + seed, 3, 1e-3, seed))
        long_.append(noisy_fit_error(500 + seed, 12, 1e-3, seed))
    data_ok = np.median(long_) < np.median(short)
    ok = sigma_ok and data_ok
    assert verdict(5, f"noisy: err(sigma=1e-3)={err_small:.3f} < "
                      f"err(1e-2)={err_large:.3f}; median err {np.median(long_):.3f}"
                      f" at 4x data < {np.median(short):.3f}", ok)


def kalman_basis(a, b):
    blocks = [np.linalg.matrix_power(a, i) @ b for i in range(a.shape[0])]
    return compact_svd(np.hstack(blocks)).U


def test_criterion_06_k2_kalman_controllability():
    ok = True
    for trial in range(20):
        g = generator(600 + trial)
        n = 2 + trial % 4  # n in 2..5
        m = 1 + trial % 2
        a = g.random((n, n)) * 2 - 1
        b = g.random((n, m)) * 2 - 1
        tensor = a.T.copy()
        kal = kalman_basis(a, b)
        for res in (controllability_full(tensor, b),
                    controllability_tt(tt_decompose(tensor), b),
                    controllability_ht(htd_decompose(tensor), b)):
            ok &= res.rank == kal.shape[1]
            ok &= subspace_equal(res.basis, kal, 1e-10)
    assert verdict(6, "k=2 bases equal Kalman span at 1e-10 over 20 systems"
                      " in all representations", ok)


def test_criterion_07_cross_representation_controllability():
    ok = True
    for scheme in SCHEMES:
        for trial in range(7):
            n = (2, 3, 4, 2, 3, 4, 4)[trial]
            seed = 700 + 13 * trial + hash(scheme) % 89
            inst = gen_instance(scheme, n, 4, rank_cap=2, seed=seed % 2 ** 31)
            b = generator(seed % 2 ** 31 + 1).random((n, 2)) * 2 - 1
            full = controllability_full(inst.dense, b)
            tt_res = controllability_tt(inst.tt, b)
            ht_res = controllability_ht(inst.ht, b)
            ok &= full.rank == tt_res.rank == ht_res.rank
            ok &= subspace_equal(full.basis, tt_res.basis, 1e-8)
            ok &= subspace_equal(full.basis, ht_res.basis, 1e-8)
    # trivial verdicts
    t4 = tc.almost_symmetrize(generator(71).random((4,) * 4) * 2 - 1)
    full_rank = controllability_full(t4, np.eye(4))
    ok &= full_rank.verdict == "strongly_controllable"
    degenerate = controllability_full(np.zeros((4,) * 4), np.eye(4)[:, :1])
    ok &= degenerate.rank == 1 and degenerate.verdict == "not_controllable"
    assert verdict(7, "full/tt/ht controllability ranks equal and bases "
                      "subspace-equal at 1e-8 on 21 scheme instances; "
                      "trivial verdicts hold", ok)


def test_criterion_08_observability():
    ok = True
    # (a) k = 2 Kalman reduction: exact rank and row-space match
    for trial in range(10):
        g = generator(800 + trial)
        n = 2 + trial % 3
        a = g.random((n, n)) * 2 - 1
        c = g.random((1, n)) * 2 - 1
        tensor = a.T.copy()
        kal = np.vstack([c @ np.linalg.matrix_power(a, i) for i in range(n)])
        res = observability_full(tensor, c, np.zeros(n), depth=n - 1)
        ok &= res.matrix_rank == numerical_rank(kal)
        stacked = np.vstack([c] + [c @ np.linalg.matrix_power(a, i + 1)
                                   for i in range(n - 1)])
        ok &= subspace_equal(compact_svd(stacked.T).U,
                             compact_svd(kal.T).U, 1e-10)
        ok &= observability_tt(tt_decompose(tensor), c, np.zeros(n),
                               depth=n - 1).matrix_rank == res.matrix_rank
        ok &= observability_ht(htd_decompose(tensor), c, np.zeros(n),
                               depth=n - 1).matrix_rank == res.matrix_rank

    # (b) three-way rank agreement at 10 probe states, n=3, k=3, depth 2
    t3 = tc.almost_symmetrize(generator(81).random((3,) * 3) * 2 - 1)
    c3 = generator(82).random((2, 3)) * 2 - 1
    train, tree = tt_decompose(t3), htd_decompose(t3)
    g = generator(83)
    for _ in range(10):
        x = g.random(3) * 2 - 1
        rf = observability_full(t3, c3, x, depth=2)
        rt = observability_tt(train, c3, x, depth=2)
        rh = observability_ht(tree, c3, x, depth=2)
        ok &= rf.matrix_rank == rt.matrix_rank == rh.matrix_rank

    # (c) row blocks equal nested finite-difference Lie-derivative gradients
    n, k = 2, 3
    t2 = tc.almost_symmetrize(generator(84).random((n,) * k) * 2 - 1)
    a_k = tc.unfold(t2, {k})
    c2 = generator(85).random((1, n)) * 2 - 1
    x = generator(86).random(n) * 2 - 1
    h = 1e-5

    def f(z):
        return eval_derivative(HpdsModel(k, n, t2), z)

    def grad(fun, z):
        out = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            out.append((fun(z + e) - fun(z - e)) / (2 * h))
        return np.column_stack(out)

    block1 = c2 @ a_k @ gradient_sum(x, k - 1)
    fd1 = grad(lambda z: (c2 @ f(z)).ravel(), x)
    ok &= np.max(np.abs(block1 - fd1)) / max(1.0, np.max(np.abs(block1))) <= 1e-4

    block2 = c2 @ a_k @ lift_operator(a_k, 2, k) @ gradient_sum(x, 2 * k - 3)
    fd2 = grad(lambda z: (grad(lambda w: (c2 @ f(w)).ravel(), z)
                          @ f(z)).ravel(), x)
    ok &= np.max(np.abs(block2 - fd2)) / max(1.0, np.max(np.abs(block2))) <= 1e-4
    assert verdict(8, "observability: k=2 Kalman reduction, 3-way rank "
                      "agreement at 10 probes, Lie-derivative blocks match "
                      "finite differences at 1e-4", ok)


def generic_param_counts(n, k, rank):
    """Exact tt and ht parameter counts of an order-k tensor with n-sized
    modes whose s-mode split (s modes against k - s) has rank rank(s)."""
    ranks = [1] + [rank(s) for s in range(1, k)] + [1]
    tt = sum(ranks[p] * n * ranks[p + 1] for p in range(k))

    def node_rank(node):
        return 1 if len(node.modes) == k else rank(len(node.modes))

    ht = 0
    for node, _ in build_tree(k).walk():
        if node.is_leaf:
            ht += n * node_rank(node)
        else:
            ht += (node_rank(node.left) * node_rank(node.right)
                   * node_rank(node))
    return {"tt": tt, "ht": ht}


def test_criterion_09_memory_trends():
    """Exact counts match the generic unfolding ranks, params/2^k falls
    over k = 5, 10, 15, and k = 10, 15 meet the reduction bounds."""
    records = memory_report(2, [5, 10, 15], schemes=SCHEMES, rank_cap=2,
                            seed=90)
    table = {(r.scheme, r.k, r.repr): r.params for r in records}
    failures = []

    def check(label, condition):
        if not condition:
            failures.append(label)

    n = 2

    def symmetric_rank(k):
        return lambda s: min(math.comb(n + s - 1, s),
                             math.comb(n + k - s - 1, k - s))

    def low_rank(k):
        return lambda s: min(2, n ** s, n ** (k - s))

    for k in (5, 10, 15):
        full = table[("symmetric", k, "full")]
        check(f"full(k={k})==2^k", full == 2 ** k)
        expected = generic_param_counts(n, k, symmetric_rank(k))
        for rep in ("tt", "ht"):
            count = table[("symmetric", k, rep)]
            check(f"sym {rep}(k={k})={count}=={expected[rep]}",
                  count == expected[rep])
        for scheme in ("low_tt", "low_ht"):
            check(f"{scheme} full(k={k})==2^k",
                  table[(scheme, k, "full")] == 2 ** k)
    # At k = 5 every tree node and train split is a prefix or a suffix of
    # the modes, so both low-rank schemes have the rank-2 cap there.
    expected = generic_param_counts(n, 5, low_rank(5))
    for scheme in ("low_tt", "low_ht"):
        for rep in ("tt", "ht"):
            count = table[(scheme, 5, rep)]
            check(f"{scheme} {rep}(k=5)={count}=={expected[rep]}",
                  count == expected[rep])
    for k in (10, 15):
        full = table[("symmetric", k, "full")]
        for rep in ("tt", "ht"):
            count = table[("symmetric", k, rep)]
            check(f"sym {rep}(k={k})={count}<=full={full}", count <= full)
        for scheme in ("low_tt", "low_ht"):
            for rep in ("tt", "ht"):
                count = table[(scheme, k, rep)]
                check(f"{scheme} {rep}(k={k})={count}<=full/5={full / 5:g}",
                      count <= full / 5)
    overhead = []
    for scheme in SCHEMES:
        for rep in ("tt", "ht"):
            ratios = [table[(scheme, k, rep)] / 2 ** k for k in (5, 10, 15)]
            check(f"{scheme} {rep}/2^k falls: "
                  + " > ".join(f"{x:.3g}" for x in ratios),
                  ratios[0] > ratios[1] > ratios[2])
            overhead.append(f"{scheme} {rep}={table[(scheme, 5, rep)]}")
    ok = not failures
    detail = "" if ok else f"; violated: {', '.join(failures)}"
    assert verdict(9, "memory: full = 2^k; k=5 counts exact from generic "
                      f"unfolding ranks ({', '.join(overhead)} vs full=32), "
                      "symmetric exact at k in {10, 15}; tt/ht <= full "
                      "(symmetric) and <= full/5 (low-rank, cap 2) at k in "
                      "{10, 15}; params/2^k falls over k = 5, 10, 15"
                      f"{detail}", ok)


def test_criterion_10_timing_trend():
    # one input column, so reachability runs rounds (here rank 1 -> 5) and
    # each round's pass over the 7^7 dense tensor dominates the full time;
    # with B of full rank no round runs and only set-up would be compared
    records = timing_report([7], [7], schemes=("low_tt",), m=1, rank_cap=4,
                            seed=100, repeats=3)
    times = {r.repr: r.elapsed_ms for r in records}
    ranks = {r.rank for r in records}
    ok = len(ranks) == 1 and times["tt"] < times["full"]
    assert verdict(10, f"timing: tt {times['tt']:.3f} ms < full "
                       f"{times['full']:.3f} ms on low_tt n=7 k=7 m=1, "
                       "equal ranks", ok)


def test_criterion_11_cli_determinism(tmp_path):
    g = generator(110)
    tensor = tc.almost_symmetrize(g.random((3,) * 3) * 2 - 1)
    model = HpdsModel(3, 3, tensor, B=0.3 * (g.random((3, 2)) * 2 - 1),
                      C=np.linalg.qr(g.random((4, 3)) * 2 - 1)[0])
    model_path = tmp_path / "model.json"
    serialize.write_model(str(model_path), model)
    (tmp_path / "x0.csv").write_text("0.2,-0.1,0.15\n")
    serialize.write_json_file(str(tmp_path / "B.json"),
                              serialize.matrix_to_obj(model.B))
    tensor_path = tmp_path / "T.json"
    serialize.write_tensor_file(str(tensor_path), tensor)

    sim_argv = ["simulate", "--model", str(model_path),
                "--x0", str(tmp_path / "x0.csv"), "--tau", "0.02",
                "--steps", "30", "--noise-std", "1e-3", "--seed", "3"]
    commands = [
        (sim_argv, "traj.csv"),
        (None, None),  # identify depends on the simulate output
        (["analyze", "controllability", "--model", str(model_path),
          "--B", str(tmp_path / "B.json")], "con.json"),
        (["analyze", "observability", "--model", str(model_path),
          "--probes", "3", "--seed", "1"], "obs.json"),
        (["decompose", "--tensor", str(tensor_path), "--method", "ht"],
         "ht.json"),
        (["bench", "memory", "--n", "2", "--k-min", "4", "--k-max", "6",
          "--scheme", "all", "--seed", "2"], "mem.csv"),
    ]
    ok = True
    assert run(sim_argv + ["--out", str(tmp_path / "first_traj.csv")]) == 0
    commands[1] = (["identify", "--data", str(tmp_path / "first_traj.csv"),
                    "--order", "3", "--repr", "tt"], "ident.json")
    for argv, name in commands:
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        ok &= run(argv + ["--out", str(a)]) == 0
        ok &= run(argv + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    assert verdict(11, "cli determinism: simulate/identify/analyze/decompose/"
                       "bench memory rerun byte-identically", ok)
