"""Tests for the method registry underpinning the decomposition engine."""

from __future__ import annotations

import pytest

from repro.core import registry
from repro.core.registry import (
    MethodSpec,
    OptionSpec,
    get_method,
    iter_methods,
    method_names,
    register_method,
)
from repro.errors import ParameterError


@pytest.fixture
def scratch_method():
    """Register a throwaway method and guarantee cleanup."""
    name = "pytest-scratch"

    def _register(**kwargs):
        defaults = dict(
            kind="unweighted", description="scratch", func=lambda g, b: None
        )
        defaults.update(kwargs)
        return register_method(name, **defaults)

    yield name, _register
    registry._REGISTRY.pop(name, None)


class TestRegistration:
    def test_duplicate_registration_rejected(self, scratch_method):
        name, reg = scratch_method
        reg()
        with pytest.raises(ParameterError, match="already registered"):
            reg()

    def test_duplicate_of_builtin_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_method(
                "bfs",
                kind="unweighted",
                description="imposter",
                func=lambda g, b: None,
            )

    def test_bad_kind_rejected(self, scratch_method):
        _, reg = scratch_method
        with pytest.raises(ParameterError, match="unknown kind"):
            reg(kind="directed")

    def test_pinned_and_exposed_options_must_not_overlap(self, scratch_method):
        _, reg = scratch_method
        with pytest.raises(ParameterError, match="pins options"):
            reg(
                options=(OptionSpec("x", "int", 0),),
                pinned={"x": 1},
            )

    def test_decorator_returns_function_unchanged(self, scratch_method):
        name, _ = scratch_method

        @register_method(name, kind="any", description="scratch")
        def fn(graph, beta):
            return "sentinel"

        assert fn(None, 0.1) == "sentinel"
        assert get_method(name).func is fn


class TestLookup:
    def test_unknown_method_error_names_choices(self):
        with pytest.raises(ParameterError, match="unknown method") as exc:
            get_method("nope")
        for name in ("bfs", "dijkstra", "sequential"):
            assert name in str(exc.value)

    def test_method_names_filter_by_kind(self):
        unweighted = method_names("unweighted")
        weighted = method_names("weighted")
        assert "bfs" in unweighted and "bfs" not in weighted
        assert "dijkstra" in weighted and "dijkstra" not in unweighted
        assert set(unweighted) | set(weighted) <= set(method_names())

    def test_iter_methods_returns_specs_in_name_order(self):
        specs = iter_methods()
        assert [s.name for s in specs] == method_names()
        assert all(isinstance(s, MethodSpec) for s in specs)

    def test_builtin_methods_present(self):
        expected = {
            "bfs",
            "exact",
            "permutation",
            "quantile",
            "sequential",
            "blelloch",
            "uniform",
            "dijkstra",
        }
        assert expected <= set(method_names())


class TestOptions:
    def test_unknown_option_error_names_accepted(self):
        spec = get_method("bfs")
        with pytest.raises(ParameterError, match="accepted options") as exc:
            spec.bind({"bogus": 1})
        assert "tie_break" in str(exc.value)

    def test_bad_choice_error_names_choices(self):
        spec = get_method("bfs")
        with pytest.raises(ParameterError, match="choices") as exc:
            spec.bind({"tie_break": "zzz"})
        assert "fractional" in str(exc.value)

    def test_bind_merges_pinned(self):
        spec = get_method("permutation")
        assert spec.bind({}) == {"tie_break": "permutation"}
        # The pinned option is not user-facing on the alias.
        with pytest.raises(ParameterError, match="no option"):
            spec.bind({"tie_break": "fractional"})

    def test_option_parse_types(self):
        assert get_method("sequential").option("randomize_starts").parse(
            "false"
        ) is False
        assert get_method("blelloch").option("shift_range_constant").parse(
            "2.5"
        ) == pytest.approx(2.5)
        with pytest.raises(ParameterError, match="expects a float"):
            get_method("blelloch").option("shift_range_constant").parse("x")
        with pytest.raises(ParameterError, match="expects a bool"):
            get_method("sequential").option("randomize_starts").parse("maybe")

    def test_option_spec_rejects_unknown_type(self):
        with pytest.raises(ParameterError, match="unknown type"):
            OptionSpec("x", "complex", 0)

    def test_bind_rejects_mistyped_values(self):
        # A string where a float is declared must fail fast in bind(), not
        # as a TypeError deep inside the algorithm.
        with pytest.raises(ParameterError, match="expects a float"):
            get_method("blelloch").bind({"shift_range_constant": "2.5"})
        with pytest.raises(ParameterError, match="expects a bool"):
            get_method("sequential").bind({"randomize_starts": "false"})
        with pytest.raises(ParameterError, match="expects a str"):
            get_method("bfs").bind({"tie_break": 3})
        # bool is not accepted where a number is declared (bool < int).
        with pytest.raises(ParameterError, match="expects a float"):
            get_method("blelloch").bind({"shift_range_constant": True})

    def test_bind_accepts_correctly_typed_values(self):
        assert get_method("blelloch").bind({"shift_range_constant": 2}) == {
            "shift_range_constant": 2
        }
        assert get_method("sequential").bind({"randomize_starts": False}) == {
            "randomize_starts": False
        }

    def test_supports_flags(self):
        bfs = get_method("bfs")
        dijkstra = get_method("dijkstra")
        assert bfs.supports_unweighted and not bfs.supports_weighted
        assert dijkstra.supports_weighted and not dijkstra.supports_unweighted
