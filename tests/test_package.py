"""The package's public names."""

import types

import ltlsplit


def test_all_names_import_and_none_is_a_module():
    assert len(set(ltlsplit.__all__)) == len(ltlsplit.__all__)
    for name in ltlsplit.__all__:
        assert not isinstance(getattr(ltlsplit, name), types.ModuleType), name
