"""The package namespace."""

import coxlinks


def test_every_exported_name_resolves():
    assert [name for name in coxlinks.__all__ if not hasattr(coxlinks, name)] == []
