import types
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdstensor import benchmarks
from hpdstensor.benchmarks import (SCHEMES, gen_instance, memory_report,
                                   timing_report)
from hpdstensor.errors import ArgumentError, ScaleError
from hpdstensor.hier_tucker import (htd_contract, htd_decompose,
                                    htd_param_count, htd_reconstruct)
from hpdstensor.model import FORMATS
from hpdstensor.randomness import generator
from hpdstensor.tensor_train import (TensorTrain, tt_contract, tt_decompose,
                                     tt_param_count, tt_reconstruct)


def symmetric_dense_loop(n, k, seed):
    """Reference: one draw per multiset, then a loop over every entry."""
    g = generator(seed)
    values = {multiset: g.random() * 2.0 - 1.0
              for multiset in combinations_with_replacement(range(n), k)}
    tensor = np.zeros((n,) * k)
    for idx in np.ndindex(*tensor.shape):
        tensor[idx] = values[tuple(sorted(idx))]
    return tensor


class TestGenInstance:
    # the symmetric instances the benchmark draws, plus edge sizes
    @pytest.mark.parametrize("n,k", [(5, 7), (3, 10), (3, 8), (4, 7), (5, 6),
                                     (8, 4), (3, 9), (5, 3), (7, 3), (1, 4),
                                     (2, 2), (300, 2)])
    def test_symmetric_dense_matches_the_loop_bitwise(self, n, k):
        for seed in (0, 11):
            want = symmetric_dense_loop(n, k, seed)
            got = gen_instance("symmetric", n, k, seed=seed).dense
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(n=st.integers(1, 5), k=st.integers(2, 8),
           seed=st.integers(0, 2 ** 16))
    def test_symmetric_forms_have_the_dense_ranks(self, n, k, seed):
        # decomposed from the distinct values, at the thresholds of the
        # dense matrices, the ranks are the dense decompositions'
        if n ** k > 20_000:
            n = 2
        inst = gen_instance("symmetric", n, k, seed=seed)
        assert inst.tt.ranks == tt_decompose(inst.dense).ranks
        dense_tree = htd_decompose(inst.dense)
        for node, _ in inst.ht.tree.walk():
            assert inst.ht.rank_of(node.modes) == \
                dense_tree.rank_of(node.modes), node.modes
        norm = np.linalg.norm(inst.dense)
        assert np.linalg.norm(tt_reconstruct(inst.tt) - inst.dense) <= \
            1e-13 * norm
        assert np.linalg.norm(htd_reconstruct(inst.ht) - inst.dense) <= \
            1e-13 * norm

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_round_trip_decompositions(self, scheme):
        inst = gen_instance(scheme, 2, 5, rank_cap=2, seed=1)
        norm = np.linalg.norm(inst.dense)
        assert np.linalg.norm(tt_reconstruct(inst.tt) - inst.dense) <= 1e-9 * norm
        assert np.linalg.norm(htd_reconstruct(inst.ht) - inst.dense) <= 1e-9 * norm

    def test_symmetric_scheme_fully_symmetric(self):
        inst = gen_instance("symmetric", 2, 4, seed=2)
        t = inst.dense
        assert np.allclose(t, np.transpose(t, (3, 2, 1, 0)))
        assert np.allclose(t, np.transpose(t, (1, 0, 2, 3)))

    def test_low_tt_rank_cap_one_is_separable(self):
        inst = gen_instance("low_tt", 3, 4, rank_cap=1, seed=3)
        assert max(inst.tt.ranks) == 1

    def test_low_schemes_respect_cap(self):
        inst = gen_instance("low_tt", 2, 6, rank_cap=2, seed=4)
        assert max(inst.tt.ranks) <= 2
        inst = gen_instance("low_ht", 2, 6, rank_cap=2, seed=5)
        assert inst.ht.max_rank() <= 4  # tt-side ranks of an ht tensor may double

    def test_deterministic_per_seed(self):
        a = gen_instance("low_tt", 2, 4, seed=9)
        b = gen_instance("low_tt", 2, 4, seed=9)
        assert np.array_equal(a.dense, b.dense)
        c = gen_instance("low_tt", 2, 4, seed=10)
        assert not np.array_equal(a.dense, c.dense)

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            gen_instance("low_ht", 10, 8, seed=0)

    def test_symmetric_past_the_guard_has_its_train_and_tree(self):
        # 6^10 entries exceed the guard; the train and tree are built from
        # the monomial coefficients, which never form them
        inst = gen_instance("symmetric", 6, 10, seed=1)
        assert inst.dense is None and set(inst.forms()) == {"tt", "ht"}
        args = np.random.default_rng(0).standard_normal((9, 6))
        want = tt_contract(inst.tt, list(args))
        got = htd_contract(inst.ht, list(args))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_symmetric_past_the_train_guard_is_refused(self):
        with pytest.raises(ScaleError):
            gen_instance("symmetric", 40, 10, seed=7)

    @pytest.mark.parametrize("n,k", [(60000, 2), (300, 4)])
    def test_symmetric_with_large_unfoldings_is_refused_before_drawing(
            self, n, k, monkeypatch):
        # within the train guard, but the largest unfolding of distinct
        # entries holds 3.6e9 (n^2) and 4.1e9 entries, past the dense guard
        def draw(*args):
            raise AssertionError("coefficients drawn")
        monkeypatch.setattr(benchmarks, "_symmetric_coefficients", draw)
        with pytest.raises(ScaleError):
            gen_instance("symmetric", n, k, seed=0)

    def test_low_tt_past_the_guard_has_its_train_and_tree(self):
        # 6^10 entries exceed the guard: no dense form, and the train and
        # tree are converted from the generated train
        inst = gen_instance("low_tt", 6, 10, rank_cap=3, seed=1)
        assert inst.dense is None and set(inst.forms()) == {"tt", "ht"}
        assert inst.tt.ranks == (1,) + (3,) * 9 + (1,)
        assert inst.ht.max_rank() == 9
        with pytest.raises(ScaleError):
            gen_instance("low_ht", 6, 10, seed=0)

    @pytest.mark.parametrize("n,k", [(8, 9), (2, 27)])
    def test_low_tt_at_the_train_guard_keeps_every_rank(self, n, k):
        # n^(k-1) = 2^24 and 2^26 rows: the default thresholds at the
        # largest unfoldings are still roundoff, so the rounded train and
        # the tree represent the drawn train
        inst = gen_instance("low_tt", n, k, rank_cap=6, seed=7)
        train = benchmarks._random_tt(n, k, 6, 7)
        assert inst.tt.ranks == train.ranks
        args = np.random.default_rng(0).standard_normal((k - 1, n))
        want = tt_contract(train, list(args))
        for got in (tt_contract(inst.tt, list(args)),
                    htd_contract(inst.ht, list(args))):
            assert np.linalg.norm(got - want) <= \
                1e-12 * np.linalg.norm(want)

    def test_low_tt_past_the_train_guard_is_refused(self):
        # 40^9 rows put the default threshold at 0.058 sigma_max, which
        # would cut real rank; timing falls back to the drawn train alone
        with pytest.raises(ScaleError):
            gen_instance("low_tt", 40, 10, rank_cap=6, seed=7)
        inst = benchmarks._generate_for_timing("low_tt", 40, 10, 6, 7)
        assert set(inst.forms()) == {"tt"}
        drawn = benchmarks._random_tt(40, 10, 6, 7)
        assert all(got.tobytes() == want.tobytes()
                   for got, want in zip(inst.tt.cores, drawn.cores))

    def test_unknown_scheme(self):
        with pytest.raises(ArgumentError):
            gen_instance("dense", 2, 3)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_order_below_two_is_refused(self, scheme):
        with pytest.raises(ArgumentError):
            gen_instance(scheme, 3, 1)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [0, -2])
    def test_dimension_below_one_is_refused_before_drawing(
            self, scheme, n, monkeypatch):
        def draw(*args):
            raise AssertionError("instance drawn")
        for name in ("_symmetric_coefficients", "_random_tt", "_random_ht"):
            monkeypatch.setattr(benchmarks, name, draw)
        with pytest.raises(ArgumentError, match="dimension n"):
            gen_instance(scheme, n, 3)


def count_factored(monkeypatch):
    """From now on, the entries passed to numpy's QR and SVD, summed per
    function: an exact count of the work done, the same on any machine."""
    counts = {"qr": 0, "svd": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counting(matrix, *args, _name=name, _original=original,
                     **kwargs):
            counts[_name] += np.size(matrix)
            return _original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


class TestWorkDone:
    def test_symmetric_instance_factors_less_than_one_pass(self,
                                                            monkeypatch):
        # the decompositions factor matrices built from the n * C(n+k-2,
        # k-1) monomial coefficients, never the n^k = 78,125 dense entries
        counts = count_factored(monkeypatch)
        gen_instance("symmetric", 5, 7, seed=1).forms()
        assert 0 < counts["qr"] + counts["svd"] < 5 ** 7

    def test_low_tt_instance_factors_less_than_one_pass(self, monkeypatch):
        # rounding and converting the rank-4 train factor matrices of at
        # most n r^2 or r_left r_right r^2 entries, never the n^k = 262,144
        # dense entries that decomposing its dense tensor reads
        counts = count_factored(monkeypatch)
        gen_instance("low_tt", 8, 6, rank_cap=4, seed=1).forms()
        assert 0 < counts["qr"] + counts["svd"] < 8 ** 6

    def test_tree_leaves_factor_shrinking_cores(self, monkeypatch):
        # six leaf QRs of dense unfoldings would read 6 * 8^6 = 1,572,864
        # entries; after the rank-4 first leaf, each later leaf factors
        # half as many, and the climb adds 75,776
        dense = gen_instance("low_tt", 8, 6, rank_cap=4, seed=1).dense
        counts = count_factored(monkeypatch)
        htd_decompose(dense)
        assert counts["qr"] <= 993_280


class TestLazyForms:
    def test_reading_the_dense_form_factors_nothing(self, monkeypatch):
        counts = count_factored(monkeypatch)
        inst = gen_instance("symmetric", 5, 7, seed=1)
        assert inst.dense.shape == (5,) * 7
        assert counts == {"qr": 0, "svd": 0}

    @pytest.mark.parametrize("fmt", ["tt", "ht"])
    def test_a_form_is_built_once(self, fmt, monkeypatch):
        calls = []
        entry = FORMATS[fmt]

        def counting(*args):
            calls.append(args)
            return entry.from_coefficients(*args)

        monkeypatch.setitem(FORMATS, fmt,
                            replace(entry, from_coefficients=counting))
        inst = gen_instance("symmetric", 4, 5, seed=3)
        assert calls == []
        first = getattr(inst, fmt)
        assert getattr(inst, fmt) is first and inst.forms()[fmt] is first
        assert len(calls) == 1

    @pytest.mark.parametrize("scheme,n,k", [("symmetric", 4, 5),
                                            ("low_tt", 3, 6),
                                            ("low_ht", 3, 5),
                                            ("symmetric", 6, 10),
                                            ("low_tt", 6, 10)])
    def test_each_form_is_its_constructor_on_the_draw(self, scheme, n, k):
        if scheme == "symmetric":
            coeffs, tables = benchmarks._symmetric_coefficients(n, k, 2)
            build = lambda fmt: fmt.from_coefficients(coeffs, tables, None)
        elif scheme == "low_tt":
            train = benchmarks._random_tt(n, k, 2, 2)
            build = lambda fmt: fmt.from_train(train)
        else:
            dense = htd_reconstruct(benchmarks._random_ht(n, k, 2, 2))
            build = lambda fmt: fmt.from_dense(dense, None)
        forms = gen_instance(scheme, n, k, rank_cap=2, seed=2).forms()
        assert list(forms) == (["full", "tt", "ht"] if n ** k <= 10 ** 7
                               else ["tt", "ht"])
        for name, got in forms.items():
            want = build(FORMATS[name])
            assert leaf_bytes(got) == leaf_bytes(want), name


def leaf_bytes(dyn) -> list[bytes]:
    """The bytes of every array a form holds, in a fixed order."""
    if isinstance(dyn, np.ndarray):
        return [dyn.tobytes()]
    if isinstance(dyn, TensorTrain):
        return [core.tobytes() for core in dyn.cores]
    return [dyn.leaf_factors[mode].tobytes() for mode in sorted(
        dyn.leaf_factors)] + [dyn.transfer[modes].tobytes()
                              for modes in sorted(dyn.transfer)]


class TestMemoryReport:
    def test_full_count_is_power(self):
        recs = memory_report(2, [5, 10], schemes=("symmetric",), seed=0)
        full = {r.k: r.params for r in recs if r.repr == "full"}
        assert full == {5: 32, 10: 1024}

    def test_params_match_representation_counts(self):
        recs = memory_report(2, [6], schemes=("low_tt",), rank_cap=2, seed=1)
        by_repr = {r.repr: r for r in recs}
        inst = gen_instance("low_tt", 2, 6, rank_cap=2, seed=1)
        assert by_repr["tt"].params == tt_param_count(inst.tt)
        assert by_repr["ht"].params == htd_param_count(inst.ht)
        assert by_repr["full"].params == 64

    def test_low_tt_savings_at_k10(self):
        recs = memory_report(2, [10], schemes=("low_tt",), rank_cap=2, seed=2)
        by_repr = {r.repr: r.params for r in recs}
        assert by_repr["tt"] <= 80 < by_repr["full"]

    def test_every_scheme_and_k_has_three_rows(self):
        recs = memory_report(2, [4, 5], seed=3)
        assert len(recs) == len(SCHEMES) * 2 * 3


class TestTimingReport:
    def test_ranks_agree_and_rows_present(self):
        recs = timing_report([4], [4], schemes=("low_tt",), m=2, rank_cap=2,
                             seed=0, repeats=2)
        assert {r.repr for r in recs} == {"full", "tt", "ht"}
        assert len({r.rank for r in recs}) == 1
        assert all(r.elapsed_ms >= 0 for r in recs)

    def test_low_tt_faster_than_full_at_desk_scale(self):
        # one input column, so the rounds' dense passes are what is timed
        recs = timing_report([7], [7], schemes=("low_tt",), m=1, rank_cap=4,
                             seed=0, repeats=3)
        time_of = {r.repr: r.elapsed_ms for r in recs}
        assert {r.rank for r in recs} == {5}
        assert time_of["tt"] < time_of["full"]

    def test_low_tt_past_the_guard_checks_tt_against_ht(self):
        # beyond the dense guard the rank check compares the train with
        # its tree, not the train with itself
        recs = timing_report([6], [10], schemes=("low_tt",), m=1, repeats=1)
        assert [r.repr for r in recs] == ["tt", "ht"]
        assert recs[0].rank == recs[1].rank

    def test_median_stability_between_repeat_counts(self, monkeypatch):
        # a scripted clock: each controllability call takes the next
        # duration, in units of 1/1024 s so every elapsed_ms is exact
        def report(durations, repeats):
            steps = [step for d in durations for step in (d, 0)][:-1]
            ticks = iter(np.cumsum([0] + steps) / 1024)
            clock = types.SimpleNamespace(perf_counter=lambda: next(ticks))
            monkeypatch.setattr(benchmarks, "time", clock)
            recs = timing_report([4], [5], schemes=("low_tt",), m=3, seed=1,
                                 repeats=repeats)
            assert next(ticks, None) is None  # every call was timed
            return recs

        ms = 1000 / 1024
        one = report([4, 1, 2], repeats=1)
        # an outlier per representation must not move the median
        five = report([4, 40, 3, 4, 5, 1, 1, 9, 0, 2, 2, 2, 30, 1, 3],
                      repeats=5)
        assert [r.repr for r in one] == [r.repr for r in five] \
            == ["full", "tt", "ht"]
        assert [r.elapsed_ms for r in one] == [4 * ms, 1 * ms, 2 * ms]
        assert [r.elapsed_ms for r in five] == [4 * ms, 1 * ms, 2 * ms]
        assert [(r.rank, r.params) for r in one] == \
            [(r.rank, r.params) for r in five]

    def test_bad_repeats(self):
        with pytest.raises(ArgumentError):
            timing_report([2], [3], repeats=0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_needs_an_input_column(self, m):
        with pytest.raises(ArgumentError, match="m must be"):
            timing_report([2], [3], m=m)
