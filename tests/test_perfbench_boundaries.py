"""perfbench's traced run times methods where their class defines them.

``perfbench/spans.py`` wraps each ``(owner, attribute)`` in its
``BOUNDARIES`` as ``owner.__dict__[attribute]``, so a refactor that
moves a timed method into a base class (or renames a patched module
name) breaks the traced benchmark with a ``KeyError``.  This test reads
the same table and fails first.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


BOUNDARIES = load_boundaries()


@pytest.mark.parametrize(
    "owner, attribute, span",
    BOUNDARIES,
    ids=[f"{owner.__name__}.{attribute}" for owner, attribute, _ in BOUNDARIES],
)
def test_boundary_is_defined_on_its_owner(owner, attribute, span):
    assert attribute in vars(owner), (
        f"{span}: {getattr(owner, '__name__', owner)} does not define "
        f"{attribute!r} itself"
    )
