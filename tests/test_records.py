"""The frozen records that the per-point path builds write out their
``__init__``; each must behave as the ``@dataclass(frozen=True)`` that
generates one."""
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from bcdyn import (
    Equilibrium,
    HurwitzVerdict,
    ReproductionNumbers,
    StabilityReport,
    SystemState,
    classify,
    default_scenario,
    find_all,
)
from bcdyn.equilibria import _FRESH
from bcdyn.stability import ConditionCheck

RECORDS = [
    SystemState, Equilibrium, ConditionCheck, HurwitzVerdict, ReproductionNumbers,
    StabilityReport,
]


def twin(cls):
    """A ``@dataclass(frozen=True)`` with the fields of ``cls`` and the
    generated ``__init__``; its repr names the same class."""
    specs = []
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            specs.append((f.name, f.type, dataclasses.field(default=f.default)))
        elif f.default_factory is not dataclasses.MISSING:
            specs.append((f.name, f.type, dataclasses.field(default_factory=f.default_factory)))
        else:
            specs.append((f.name, f.type))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def tokens(cls) -> dict:
    """A distinct value per field, so a dropped or swapped store shows."""
    return {f.name: f"<{f.name}>" for f in dataclasses.fields(cls)}


def outcome(call):
    """``call()``, or the type of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def default_records() -> list:
    """One real instance of each record, from the default scenario."""
    pm = default_scenario().params
    report = next(classify(eq, pm) for eq in find_all(pm) if eq.family == "dead1")
    return [
        report.equilibrium.point, report.equilibrium, next(iter(report.theorem_checks.values())),
        report.hurwitz, report.repro, report,
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_signature_matches_the_init_fields(self, cls):
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        fields = [f for f in dataclasses.fields(cls) if f.init]
        assert [p.name for p in params] == [f.name for f in fields]
        for p, f in zip(params, fields):
            assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if f.default is not dataclasses.MISSING:
                assert p.default == f.default and type(p.default) is type(f.default)
            elif f.default_factory is not dataclasses.MISSING:
                assert p.default is _FRESH
            else:
                assert p.default is inspect.Parameter.empty

    def test_stores_each_argument_under_its_field(self, cls):
        values = tokens(cls)
        assert vars(cls(*values.values())) == values
        assert vars(cls(**values)) == values
        assert vars(cls(*values.values())) == vars(twin(cls)(*values.values()))

    def test_omitted_dict_fields_get_fresh_dicts(self, cls):
        fields = dataclasses.fields(cls)
        factories = [f.name for f in fields if f.default_factory is not dataclasses.MISSING]
        required = {
            f.name: f"<{f.name}>" for f in fields
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        }
        a, b = cls(**required), cls(**required)
        for name in factories:
            assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
        # An explicit None is stored as given, not taken for an omission.
        given = cls(**required, **{name: None for name in factories})
        assert all(getattr(given, name) is None for name in factories)
        assert vars(a) == vars(twin(cls)(**required))

    def test_frozen(self, cls):
        record = cls(*tokens(cls).values())
        for name in tokens(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, "changed")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert vars(record) == tokens(cls)

    def test_behaves_as_its_generated_twin(self, cls):
        values = list(tokens(cls).values())
        other = values[:-1] + ["<other>"]
        Twin = twin(cls)
        record, same, changed = cls(*values), cls(*values), cls(*other)
        t_record, t_same, t_changed = Twin(*values), Twin(*values), Twin(*other)
        assert repr(record) == repr(t_record)
        assert (record == same, record == changed) == (t_record == t_same, t_record == t_changed)
        assert outcome(lambda: hash(record)) == outcome(lambda: hash(t_record))
        first = dataclasses.fields(cls)[0].name
        assert repr(dataclasses.replace(record, **{first: "<new>"})) == repr(
            dataclasses.replace(t_record, **{first: "<new>"})
        )
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record and vars(copy) == vars(record)


def test_real_records_behave_as_their_twins():
    """The records of one classify call, with their real field values
    (an array, dicts, nested records)."""
    for record in default_records():
        cls = type(record)
        values = [getattr(record, f.name) for f in dataclasses.fields(cls)]
        mirror = twin(cls)(*values)
        assert repr(record) == repr(mirror)
        assert record == cls(*values)
        assert outcome(lambda: hash(record)) == outcome(lambda: hash(mirror))
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and repr(copy) == repr(record)
        if isinstance(record, StabilityReport):
            assert np.array_equal(copy.jacobian, record.jacobian)
