import hclat
from hclat import bernoulli, bundles, exact, genera, lattices, plumbing, verify

MODULES = (exact, bernoulli, genera, plumbing, lattices, bundles, verify)


def test_all_is_the_module_lists_in_order():
    names = [name for mod in MODULES for name in mod.__all__]
    assert hclat.__all__ == names
    assert len(set(names)) == len(names)


def test_every_name_is_the_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(hclat, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from hclat import *", namespace)
    assert set(hclat.__all__) <= namespace.keys()
    for name in hclat.__all__:
        assert namespace[name] is getattr(hclat, name)
