import pytest

from scanmix import ClassTaxonomy, LabeledPointCloud, RandomStream


@pytest.fixture
def taxonomy():
    return ClassTaxonomy("toy3", ("a", "b", "c"), ignore_index=-1)


@pytest.fixture
def rng():
    return RandomStream(1234)


def random_cloud(taxonomy, n=100, seed=0, scale=1.0):
    gen = RandomStream(seed)
    positions = gen.uniform(0.0, scale, size=(n, 3))
    labels = gen.integers(0, taxonomy.count, size=n)
    return LabeledPointCloud(positions, labels, taxonomy)
