"""Tests of the shared registry module (repro.registry).

Experiments, solvers and problems are looked up through one ``Registry``,
reject unknown names with one ``UnknownNameError`` and validate keyword
arguments through one ``resolve``/``Parameter.coerce`` path; these tests pin
that the three registries behave the same way.
"""

import pytest

from repro.core.registry import get_experiment
from repro.exceptions import ConfigurationError
from repro.problems import build_problem, get_problem
from repro.registry import Parameter, UnknownNameError, resolve
from repro.solve import get_solver


class TestParameterCoerce:
    @pytest.mark.parametrize(
        "raw,expected",
        [("1", True), ("true", True), ("Yes", True), ("ON", True),
         ("0", False), ("false", False), ("No", False), ("OFF", False),
         (1, True), (0, False)],
    )
    def test_bool_values(self, raw, expected):
        assert Parameter("cache", bool, False).coerce(raw) is expected

    @pytest.mark.parametrize(
        "kind,raw", [(bool, "maybe"), (int, "abc"), (float, "x1"), (int, [1])]
    )
    def test_bad_values_are_configuration_errors(self, kind, raw):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            Parameter("knob", kind, None).coerce(raw)

    def test_none_passes_through(self):
        assert Parameter("budget", int, None).coerce(None) is None


class TestResolve:
    SCHEMA = (Parameter("n_var", int, 30), Parameter("normalized", bool, False))

    def test_defaults_merged_and_values_coerced(self):
        assert resolve(self.SCHEMA, {"n_var": "7"}, "problem 'demo'") == {
            "n_var": 7,
            "normalized": False,
        }

    def test_unknown_key_names_owner_and_suggests(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve(self.SCHEMA, {"n_va": 3}, "problem 'demo'")
        message = str(excinfo.value)
        assert "unknown parameter" in message and "problem 'demo'" in message
        assert "did you mean n_var?" in message

    def test_non_numeric_int_on_the_experiment_and_problem_paths(self):
        with pytest.raises(ConfigurationError, match="'abc' as int"):
            get_experiment("migration-ablation").validate_parameters(
                {"generations": "abc"}
            )
        with pytest.raises(ConfigurationError, match="'abc' as int"):
            build_problem("zdt1?n_var=abc")


class TestUnknownNames:
    LOOKUPS = {
        "experiment": (lambda: get_experiment("table1"), "photosynthesis-table1"),
        "solver": (lambda: get_solver("nsga"), "nsga2"),
        "problem": (lambda: get_problem("zdt"), "zdt1"),
    }

    @pytest.mark.parametrize("kind", sorted(LOOKUPS))
    def test_one_error_class_for_every_registry(self, kind):
        lookup, suggestion = self.LOOKUPS[kind]
        with pytest.raises(UnknownNameError) as excinfo:
            lookup()
        error = excinfo.value
        assert isinstance(error, ConfigurationError) and isinstance(error, KeyError)
        assert str(error).startswith("unknown %s '" % kind)
        assert "did you mean" in str(error) and suggestion in str(error)

    def test_build_problem_raises_the_same_class(self):
        with pytest.raises(UnknownNameError, match="^unknown problem 'zdt_1'"):
            build_problem("zdt_1")

    def test_no_hint_when_nothing_is_close(self):
        with pytest.raises(UnknownNameError) as excinfo:
            get_solver("annealing")
        assert "did you mean" not in str(excinfo.value)
        assert "available: archipelago, moead, nsga2, pmo2" in str(excinfo.value)

