import randpipe


def test_exported_names_resolve():
    assert len(set(randpipe.__all__)) == len(randpipe.__all__)
    for name in randpipe.__all__:
        assert getattr(randpipe, name, None) is not None, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from randpipe import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(randpipe.__all__)
