"""Exact characteristic-number lattices of highly connected manifolds.

Everything is computed in exact integer and rational arithmetic: Bernoulli
and tangent numbers at large index, the genus coefficients available on
highly connected manifolds, the invariants of the two standard plumbings,
the lattices of realizable characteristic numbers, the divisibility
constants for signatures and A-hat genera of bundles over surfaces, and a
verification harness for the long-range number-theoretic scans.

Every name in a module's ``__all__`` is an attribute of the package, but it
is resolved on first use: importing ``hclat`` or one of its modules loads
only what that module imports.  The first access to a public name, or to
``__all__``, imports all seven modules and binds their names here, after
which each lookup is a plain attribute read.  So ``hclat bernoulli`` loads
``exact`` and ``bernoulli``; the prefix scans add ``plumbing`` and
``verify``; the identity suite, the library and the other commands load the
layers they call.
"""

__version__ = "0.1.0"

# in the order of their names in __all__; each module's __all__ is the one list of its names
_MODULES = ("exact", "bernoulli", "genera", "plumbing", "lattices", "bundles", "verify")


def _bind() -> None:
    from importlib import import_module

    names: list[str] = []
    for short in _MODULES:
        mod = import_module(f"{__name__}.{short}")
        globals().update((name, getattr(mod, name)) for name in mod.__all__)
        names += mod.__all__
    globals()["__all__"] = names
    # every name is bound, so the module's own lookup and dir() take over; CPython
    # specializes attribute reads only on a module without __getattr__
    for hook in ("__getattr__", "__dir__"):
        globals().pop(hook, None)


def __getattr__(name: str):
    # a submodule's name is left to the import system, so ``from . import bernoulli``
    # loads that module alone; other private names are never public
    if name == "__all__" or not (name.startswith("_") or name in _MODULES or name == "cli"):
        _bind()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _bind()
    return sorted(globals())
