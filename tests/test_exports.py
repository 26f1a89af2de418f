"""The package's public names: one list, each name bound once."""

import l1weak


def test_every_public_name_resolves_once():
    assert len(set(l1weak.__all__)) == len(l1weak.__all__)
    for name in l1weak.__all__:
        assert hasattr(l1weak, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from l1weak import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(l1weak.__all__)
