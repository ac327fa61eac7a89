"""The exported surface of the package."""

import wqalg


def test_every_exported_name_resolves():
    missing = [name for name in wqalg.__all__ if not hasattr(wqalg, name)]
    assert not missing
    assert len(set(wqalg.__all__)) == len(wqalg.__all__)
