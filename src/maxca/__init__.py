"""Maximum-length hybrid 90/150 cellular automata.

Enumerates, verifies, and runs every n-cell linear CA built from rules
90 and 150 whose nonzero states form a single cycle of length 2^n - 1.
The library covers the full pipeline: exact GF(2) polynomial
arithmetic, characteristic polynomials of the tridiagonal transition
matrix, primitivity testing, exhaustive rule-vector search, raw
simulation of the automaton as a bit generator, and re-verification of
the bundled n = 2..12 reference table.

`import maxca` compiles no submodule. On first use (PEP 562), a public
name such as `maxca.is_primitive` is looked up in the `__all__` of the
modules already loaded, then of the others in `_MODULES` order, each
imported in turn until one holds it: a name compiles at most its own
module and the ones listed before it.
"""

__version__ = "1.0.0"

# Each module comes after the ones it imports. In a fresh process a name
# also compiles the modules before its own that it does not need:
# `primitivity` for the `charpoly` and `automaton` names, `automaton`
# for the `enumerator` names and `enumerator` for the `tables` names.
_MODULES = ("gf2poly", "primitivity", "charpoly", "automaton", "enumerator", "tables")


def _module(name: str):
    from importlib import import_module

    return import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        # Each module's __all__ is the one list of its public names.
        value = sorted(n for m in _MODULES for n in _module(m).__all__)
    elif name in _MODULES:
        value = _module(name)
    else:
        # Loaded modules first (the import system binds each in the
        # package), then the rest in order; the sort is stable. `cli`
        # and `lanes` are in no __all__: the package has no such name,
        # so `from maxca import cli` loads just that submodule.
        searched = () if name in ("cli", "lanes") else sorted(_MODULES, key=lambda m: m not in globals())
        for m in searched:
            module = _module(m)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    public = globals().get("__all__") or __getattr__("__all__")
    return sorted(set(globals()) | set(public))
