import mlq


def test_every_exported_name_resolves():
    missing = [name for name in mlq.__all__ if not hasattr(mlq, name)]
    assert missing == []
    assert len(set(mlq.__all__)) == len(mlq.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from mlq import *", namespace)
    assert set(mlq.__all__) <= set(namespace)

