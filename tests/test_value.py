"""Value types: equality, hash, repr and immutability from the fields, and
a start-up that imports neither ``dataclasses`` nor what it pulls in."""

import functools
import subprocess
import sys
from pathlib import Path

import pytest

import digitop
from digitop import (CycleWitness, DigitalImage, EgsResult, FiniteFunction, FiniteGraph,
                     FunctionGraph, HomotopyDecision, HomotopyTable, LatticePath, MultiFunction,
                     Subdivision, SubsetFamily)
from digitop.value import Value, cached_property
from digitop.verify import CheckResult

X = DigitalImage(1, ((0,), (1,)), 1)
F_PAIRS = (((0,), (0,)), ((1,), (0,)))
F = FiniteFunction(X, X, F_PAIRS)
M_PAIRS = (((0,), frozenset({(0,)})), ((1,), frozenset({(0,), (1,)})))

# per class: positional arguments, the same value by keyword, and its repr
CASES = [
    (DigitalImage, (1, ((1,), (0,)), 1), dict(dim=1, points=((0,), (1,)), adjacency=1),
     "DigitalImage(dim=1, points=((0,), (1,)), adjacency=1)"),
    (LatticePath, (X, ((0,), (1,))), dict(image=X, steps=((0,), (1,))),
     "LatticePath(image=DigitalImage(dim=1, points=((0,), (1,)), adjacency=1), "
     "steps=((0,), (1,)))"),
    (SubsetFamily, (X, (3, 1), "custom"), dict(base=X, masks=(1, 3), kind="custom"),
     "SubsetFamily(base=DigitalImage(dim=1, points=((0,), (1,)), adjacency=1), "
     "masks=(1, 3), kind='custom')"),
    (FiniteFunction, (X, X, F_PAIRS), dict(domain=X, codomain=X, pairs=F_PAIRS),
     "<map (0,)->(0,), (1,)->(0,)>"),
    (FiniteGraph, (2, (2, 1)), dict(n=2, adj=(2, 1)), "FiniteGraph(n=2, adj=(2, 1))"),
    (CycleWitness, ((0, 1, 2),), dict(vertices=(0, 1, 2)), "CycleWitness(vertices=(0, 1, 2))"),
    (FunctionGraph, (X, X, "phi", ((0, 0), (0, 1))),
     dict(domain=X, codomain=X, flavor="phi", rows=((0, 0), (0, 1))),
     "FunctionGraph(domain=DigitalImage(dim=1, points=((0,), (1,)), adjacency=1), "
     "codomain=DigitalImage(dim=1, points=((0,), (1,)), adjacency=1), flavor='phi', "
     "rows=((0, 0), (0, 1)))"),
    (HomotopyTable, (X, X, (F,)), dict(domain=X, codomain=X, slices=(F,)),
     "HomotopyTable(domain=DigitalImage(dim=1, points=((0,), (1,)), adjacency=1), "
     "codomain=DigitalImage(dim=1, points=((0,), (1,)), adjacency=1), "
     "slices=(<map (0,)->(0,), (1,)->(0,)>,))"),
    (HomotopyDecision, (True, (F,)), dict(related=True, path=(F,)),
     "HomotopyDecision(related=True, path=(<map (0,)->(0,), (1,)->(0,)>,))"),
    (MultiFunction, (X, X, M_PAIRS), dict(domain=X, codomain=X, pairs=M_PAIRS),
     "MultiFunction(domain=DigitalImage(dim=1, points=((0,), (1,)), adjacency=1), "
     "codomain=DigitalImage(dim=1, points=((0,), (1,)), adjacency=1), masks=(1, 3))"),
    (Subdivision, (X, 2), dict(base=X, r=2),
     "Subdivision(base=DigitalImage(dim=1, points=((0,), (1,)), adjacency=1), r=2)"),
    (EgsResult, (False, None, None, 3), dict(found=False, r=None, generator=None, r_max=3),
     "EgsResult(found=False, r=None, generator=None, r_max=3)"),
    (CheckResult, ("claim", False, "first (0,)"),
     dict(name="claim", passed=False, details="first (0,)"),
     "CheckResult(name='claim', passed=False, details='first (0,)')"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
class TestValueSemantics:
    def test_equal_fields_make_equal_values(self, cls, args, kwargs, text):
        x, y = cls(*args), cls(*args)
        assert x == y and not x != y
        assert cls(**kwargs) == x
        other, other_args = next((c, a) for c, a, _, _ in CASES if c is not cls)
        z = other(*other_args)
        assert x != z and not x == z

    def test_hash_is_the_field_tuple(self, cls, args, kwargs, text):
        x = cls(*args)
        values = tuple(getattr(x, name) for name in cls._fields)
        assert hash(x) == hash(values) == hash(cls(**kwargs))

    def test_repr(self, cls, args, kwargs, text):
        assert repr(cls(*args)) == repr(cls(**kwargs)) == text

    def test_assignment_and_deletion(self, cls, args, kwargs, text):
        x = cls(*args)
        name = cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.unknown = 1
        assert x == cls(*args)


def test_fields_are_the_annotations_in_order():
    assert {cls.__name__: cls._fields for cls, *_ in CASES} == {
        "DigitalImage": ("dim", "points", "adjacency"),
        "LatticePath": ("image", "steps"),
        "SubsetFamily": ("base", "masks", "kind"),
        "FiniteFunction": ("domain", "codomain", "row"),
        "FiniteGraph": ("n", "adj"),
        "CycleWitness": ("vertices",),
        "FunctionGraph": ("domain", "codomain", "flavor", "rows"),
        "HomotopyTable": ("domain", "codomain", "slices"),
        "HomotopyDecision": ("related", "path"),
        "MultiFunction": ("domain", "codomain", "masks"),
        "Subdivision": ("base", "r"),
        "EgsResult": ("found", "r", "generator", "r_max"),
        "CheckResult": ("name", "passed", "details"),
    }


def test_trusted_values_equal_checked_ones():
    assert FiniteFunction._trusted(X, X, (0, 0)) == F
    assert hash(FiniteFunction._trusted(X, X, (0, 0))) == hash(F)
    assert SubsetFamily._trusted(X, (1, 3), "custom") == SubsetFamily(X, (3, 1), "custom")
    assert FiniteGraph._trusted(2, (2, 1)) == FiniteGraph(2, (2, 1))
    assert MultiFunction._trusted(X, X, (1, 3)) == MultiFunction(X, X, M_PAIRS)


def test_cached_views_still_build():
    f = FiniteFunction._trusted(X, X, (0, 0))
    assert f.pairs == F_PAIRS and f.table == dict(F_PAIRS)
    assert X.neighbor_masks == (2, 1)


def test_lazy_value_is_computed_once_into_the_instance_dict():
    calls = []

    class Box(Value):
        n: int

        def __init__(self, n):
            self.__dict__.update(n=n, _key=(n,))

        @cached_property
        def double(self):
            """Twice n."""
            calls.append(self.n)
            return 2 * self.n

    box = Box(3)
    assert "double" not in box.__dict__
    assert box.double == 6 and box.double == 6
    assert calls == [3] and box.__dict__["double"] == 6
    # read on the class, it is the descriptor, with the function's doc
    assert isinstance(Box.double, cached_property) and Box.double.__doc__ == "Twice n."
    with pytest.raises(AttributeError):
        box.double = 7
    assert Box(3) == box and Box(3).double == 6 and calls == [3, 3]


def test_views_are_the_lock_free_cached_property():
    # every module's lazy views are value.cached_property, none functools'
    views = [v for module in (digitop.lattice, digitop.functions, digitop.hyperspace,
                              digitop.graphmetrics, digitop.homotopy, digitop.multivalued)
             for cls in vars(module).values() if isinstance(cls, type)
             for v in vars(cls).values()]
    assert not any(isinstance(v, functools.cached_property) for v in views)
    assert sum(isinstance(v, cached_property) for v in views) >= 6
    assert isinstance(vars(DigitalImage)["neighbor_masks"], cached_property)


def test_cli_start_up_imports_no_dataclasses():
    """A fresh interpreter that imports the CLI and builds its parser loads
    none of ``dataclasses`` and the modules it pulls in."""
    src = Path(digitop.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import digitop.cli; digitop.cli.build_parser(); "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "digitop.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_cli_start_up_imports_no_typing():
    """The package names ``Iterable`` and its kin only in annotations, which
    are never evaluated, so a fresh interpreter without ``site`` that imports
    the CLI does not load ``typing``."""
    src = Path(digitop.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import digitop.cli; "
            "print('typing' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "False\n"
