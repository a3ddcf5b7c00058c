import totirr


def test_every_exported_name_resolves():
    # a stale string in __all__ would otherwise only fail at `from totirr import *`
    assert [name for name in totirr.__all__ if not hasattr(totirr, name)] == []
    assert len(set(totirr.__all__)) == len(totirr.__all__)
