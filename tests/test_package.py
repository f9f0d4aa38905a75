import collapsemc


def test_public_names_resolve():
    assert len(set(collapsemc.__all__)) == len(collapsemc.__all__)
    for name in collapsemc.__all__:
        assert hasattr(collapsemc, name), name


def test_star_import():
    namespace = {}
    exec("from collapsemc import *", namespace)
    assert set(collapsemc.__all__) <= set(namespace)
