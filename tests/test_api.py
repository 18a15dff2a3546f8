import fermipulse as fp


def test_all_names_resolve_once():
    assert len(fp.__all__) == len(set(fp.__all__))
    missing = [name for name in fp.__all__ if not hasattr(fp, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fermipulse import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fp.__all__)
