"""The package namespace is each module's `__all__`, joined."""

import markovfrac
from markovfrac import analysis, exact, farey, markov, slopes

_MODULES = (exact, farey, markov, slopes, analysis)


def test_package_all_joins_the_module_lists():
    joined = [name for mod in _MODULES for name in mod.__all__]
    assert markovfrac.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_package_names_are_the_module_objects():
    for mod in _MODULES:
        for name in mod.__all__:
            assert getattr(markovfrac, name) is getattr(mod, name), (mod.__name__, name)
