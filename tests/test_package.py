import exactseries


def test_every_exported_name_resolves():
    missing = [name for name in exactseries.__all__
               if not hasattr(exactseries, name)]
    assert missing == []


def test_star_import_gives_the_export_list():
    namespace = {}
    exec("from exactseries import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(exactseries.__all__)
