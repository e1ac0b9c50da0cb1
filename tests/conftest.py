import dataclasses

import numpy as np
import pytest

from qsdelim import (
    Fixture,
    HilbertSpace,
    Operator,
    QsdeCoefficients,
    builtin_fixture,
    driven_oscillator_limit,
    tensor_embed,
    trivial_family_from_limit,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def dk_fixture():
    return builtin_fixture("duan-kimble")


@pytest.fixture(scope="session")
def cavity_fixture_default():
    return builtin_fixture("cavity")


@pytest.fixture(scope="session")
def mirror_fixture_default():
    return builtin_fixture("mirror")


def _shifted_truncation_demo(shift: float, name: str) -> Fixture:
    fix = builtin_fixture("truncation-demo")
    fam = fix.family
    shifted = dataclasses.replace(
        fam, b=fam.b + shift * Operator.identity(fam.space)
    )
    return Fixture(name=name, family=shifted, sub=fix.sub)


@pytest.fixture(scope="session")
def shifted_truncation_demo():
    """truncation-demo with B replaced by B + 3I: a fixed-coefficient model
    whose order-one unitarity relation (scaled.b) fails by 6."""
    return _shifted_truncation_demo(3.0, "shifted")


@pytest.fixture(scope="session")
def lowered_truncation_demo():
    """truncation-demo with B replaced by B - 3I: scaled.b fails by 6, yet
    its semigroup contracts, so a contraction check alone would pass it."""
    return _shifted_truncation_demo(-3.0, "lowered")


@pytest.fixture(scope="session")
def osc_qubit_fixture():
    """The oscillator of truncation-demo (cutoff 5) tensored with a qubit,
    as a fixed-coefficient model on a space with two tensor factors."""
    osc = driven_oscillator_limit(5)
    space = HilbertSpace((6, 2))

    def up(op):
        return tensor_embed(op, 0, space)

    limit = QsdeCoefficients(
        up(osc.k_op), (up(osc.l_ops[0]),), (up(osc.m_ops[0]),),
        ((up(osc.n_ops[0][0]),),),
    )
    fam, sub = trivial_family_from_limit(limit)
    return Fixture(name="osc-qubit", family=fam, sub=sub)
