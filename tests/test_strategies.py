"""Strategy enumeration, strategy sums and hidden-state mixtures."""

import numpy as np
import pytest

from steerkit.strategies import all_strategies, mixture, strategy_sums


def random_table(shape, gen):
    return gen.normal(size=shape) + 1j * gen.normal(size=shape)


def answer_tables(settings, outcomes, gen):
    """Every strategy in enumeration order, and a shuffled subset of them."""
    full = all_strategies(settings, outcomes)
    return full, full[gen.permutation(len(full))[: len(full) // 2 + 1]]


@pytest.mark.parametrize("settings, outcomes", [(3, 3), (4, 2)])
class TestAgainstLoops:
    def test_strategy_sums(self, settings, outcomes):
        gen = np.random.default_rng([36, settings, outcomes])
        table = random_table((settings, outcomes, 3, 3), gen)
        for answers in answer_tables(settings, outcomes, gen):
            want = np.zeros((len(answers), 3, 3), dtype=complex)
            for k, row in enumerate(answers):
                for x in range(settings):
                    want[k] += table[x, row[x]]
            assert np.array_equal(strategy_sums(table, answers), want)
            # a single strategy gives its one sum
            assert np.array_equal(strategy_sums(table, answers[-1]), want[-1])

    def test_mixture(self, settings, outcomes):
        gen = np.random.default_rng([37, settings, outcomes])
        for answers in answer_tables(settings, outcomes, gen):
            states = random_table((len(answers), 2, 2), gen)
            want = np.zeros((settings, outcomes, 2, 2), dtype=complex)
            for k, row in enumerate(answers):
                for x in range(settings):
                    want[x, row[x]] += states[k]
            assert np.array_equal(mixture(answers, outcomes, states), want)

    def test_sums_are_the_adjoint_of_the_mixture(self, settings, outcomes):
        # sum_k tr(Y_k S_k) = sum_{x,a} tr(mixture[x, a] F[x, a]) for the
        # strategy sums S_k of F and any states Y_k
        gen = np.random.default_rng([38, settings, outcomes])
        table = random_table((settings, outcomes, 3, 3), gen)
        for answers in answer_tables(settings, outcomes, gen):
            states = random_table((len(answers), 3, 3), gen)
            lhs = np.einsum("kij,kji->", states, strategy_sums(table, answers))
            rhs = np.einsum("xaij,xaji->", mixture(answers, outcomes, states), table)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

