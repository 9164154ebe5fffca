"""The spec-file contract every workload kind shares.

Scenario, network, arena and session files load, save and fail through
one codec (:mod:`repro.utils.specfile`), so one test parametrized over
:data:`repro.cli.WORKLOADS` pins the whole contract for every kind,
each against its bundled example under ``examples/scenarios/``.
"""

import dataclasses
import json
import os

import pytest

from repro.arena import ArenaError
from repro.cli import WORKLOADS, spec_kind
from repro.network import NetworkError
from repro.protocol import SessionError
from repro.scenario import ScenarioError
from repro.utils.specfile import SpecError, grid_values, require_int, require_number

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO, "examples", "scenarios")
KINDS = sorted(WORKLOADS)

#: per kind, a mutation that breaks a field below the top level
NESTED = {
    "scenario": lambda d: d.update(config={"symbols_per_hop": "four"}),
    "session": lambda d: d.update(config={"symbols_per_hop": "four"}),
    "tournament": lambda d: d.update(config={"symbols_per_hop": "four"}),
    "network": lambda d: d["links"][0].update(config={"symbols_per_hop": "four"}),
}


def example_path(kind: str) -> str:
    """The first bundled example file of ``kind``."""
    for name in sorted(os.listdir(EXAMPLES)):
        path = os.path.join(EXAMPLES, name)
        with open(path) as fh:
            if spec_kind(json.load(fh)) == kind:
                return path
    raise AssertionError(f"no bundled {kind} example")


def example_data(kind: str) -> dict:
    with open(example_path(kind)) as fh:
        return json.load(fh)


def test_family_errors_are_the_spec_error():
    assert ScenarioError is NetworkError is ArenaError is SessionError is SpecError
    assert issubclass(SpecError, ValueError)


def test_every_kind_has_a_nested_mutation():
    assert set(NESTED) == set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
class TestSpecFileContract:
    def test_unreadable_path(self, kind, tmp_path):
        spec = WORKLOADS[kind].spec
        path = str(tmp_path / "missing.json")
        with pytest.raises(SpecError) as err:
            spec.load(path)
        assert str(err.value).startswith(f"{path}: cannot read {spec.KIND} file (")

    def test_invalid_json(self, kind, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError) as err:
            WORKLOADS[kind].spec.load(str(path))
        assert str(err.value).startswith(f"{path}: invalid JSON (")

    def test_non_mapping_document(self, kind, tmp_path):
        spec = WORKLOADS[kind].spec
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SpecError) as err:
            spec.load(str(path))
        assert str(err.value) == f"{path}: {spec.KIND} spec must be a mapping, got list"

    def test_missing_name(self, kind):
        data = example_data(kind)
        del data["name"]
        with pytest.raises(SpecError, match="^name: field is required$"):
            WORKLOADS[kind].spec.from_dict(data)

    def test_unknown_top_level_field(self, kind):
        spec = WORKLOADS[kind].spec
        data = example_data(kind)
        data["turbo"] = True
        with pytest.raises(SpecError) as err:
            spec.from_dict(data)
        assert str(err.value) == f"unknown {spec.KIND} field(s): ['turbo']"

    def test_nested_error_carries_the_source_prefix(self, kind, tmp_path):
        data = example_data(kind)
        NESTED[kind](data)
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecError) as err:
            WORKLOADS[kind].spec.load(str(path))
        message = str(err.value)
        assert message.startswith(f"{path}: ")
        assert "config" in message and "symbols_per_hop" in message

    def test_save_load_round_trip(self, kind, tmp_path):
        spec_cls = WORKLOADS[kind].spec
        spec = spec_cls.load(example_path(kind))
        path = spec.save(str(tmp_path / "nested" / "again.json"))
        with open(path) as fh:
            text = fh.read()
        assert text == json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"
        again = spec_cls.load(path)
        assert type(again) is spec_cls
        assert again == spec
        assert again.to_dict() == spec.to_dict()

    @pytest.mark.parametrize("field, value, fragment", [
        ("name", "", "name: must be a non-empty string"),
        ("name", 5, "name: must be a non-empty string"),
        ("description", 5, "description: must be a string"),
    ])
    def test_shared_field_checks(self, kind, field, value, fragment):
        spec = WORKLOADS[kind].spec.load(example_path(kind))
        with pytest.raises(SpecError, match=f"^{fragment}$"):
            dataclasses.replace(spec, **{field: value})


class TestValidators:
    def test_require_int(self):
        assert require_int(3, "n", minimum=1) == 3
        with pytest.raises(SpecError, match=r"^n: expected an integer, got True$"):
            require_int(True, "n")
        with pytest.raises(SpecError, match=r"^n: expected an integer, got 1\.5$"):
            require_int(1.5, "n")
        with pytest.raises(SpecError, match=r"^n: must be >= 1, got 0$"):
            require_int(0, "n", minimum=1)

    def test_require_number(self):
        assert require_number(2, "x") == 2.0
        assert isinstance(require_number(2, "x"), float)
        with pytest.raises(SpecError, match=r"^x: expected a number, got False$"):
            require_number(False, "x")
        with pytest.raises(SpecError, match=r"^x: expected a number, got '1'$"):
            require_number("1", "x")

    def test_grid_values(self):
        assert grid_values([1, 2.5], "g") == (1.0, 2.5)
        with pytest.raises(SpecError, match=r"^g: must be a non-empty list of numbers$"):
            grid_values([], "g")
        with pytest.raises(SpecError, match=r"^g\[1\]: expected a number, got 'two'$"):
            grid_values([1.0, "two"], "g")
