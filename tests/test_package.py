import types

import stabforce


def test_all_lists_every_public_name_and_no_submodule():
    names = stabforce.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(stabforce, name), types.ModuleType), name
    public = {name for name, value in vars(stabforce).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from stabforce import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stabforce.__all__)
