"""The package root carries its version and nothing else: each name is
imported from the module that defines it."""

import invseries


def test_version():
    assert invseries.__version__
