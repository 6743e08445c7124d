"""Method registry — the extensibility seam of the decomposition engine.

Every decomposition algorithm is published through a :class:`MethodSpec`
registered with :func:`register_method`.  The spec records what the engine
needs for dispatch and validation without importing the engine:

- which *graph kinds* the implementation accepts (``"unweighted"`` CSR
  topology, ``"weighted"`` CSR with positive edge weights, or ``"any"``);
- which keyword *options* it accepts (:class:`OptionSpec` — type, default,
  choices), so ``decompose(..., **options)`` and the CLI's
  ``--option key=value`` can validate inputs up front with error messages
  that name the valid alternatives;
- *pinned* options for alias methods (``permutation`` is ``bfs`` with
  ``tie_break`` pinned), which callers cannot override.

New algorithms — the MPX spanner/hopset line, batched variants — plug in by
decorating their entry point; no engine or CLI change is needed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bfs.kernels import KERNEL_CHOICES
from repro.errors import ParameterError

__all__ = [
    "OptionSpec",
    "MethodSpec",
    "KERNEL_OPTION",
    "register_method",
    "get_method",
    "method_names",
    "iter_methods",
    "describe_methods",
]

#: Graph kinds a method may declare support for.
GRAPH_KINDS = ("unweighted", "weighted", "any")

_OPTION_PARSERS: dict[str, Callable[[str], object]] = {
    "str": str,
    "int": int,
    "float": float,
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_OPTION_PARSERS["bool"] = _parse_bool

#: Python types accepted per declared option type (bool is checked first in
#: validate() — it subclasses int and must not satisfy int/float options).
_OPTION_PYTHON_TYPES = {
    "str": str,
    "int": (int, np.integer),
    "float": (int, float, np.integer, np.floating),
    "bool": (bool, np.bool_),
}


@dataclass(frozen=True)
class OptionSpec:
    """One accepted keyword option of a registered method.

    ``type`` is a name from ``{"str", "int", "float", "bool"}`` — kept as a
    string so specs stay trivially picklable and printable.  ``choices``
    restricts string options to an enumerated set.
    """

    name: str
    type: str
    default: object
    description: str = ""
    choices: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.type not in _OPTION_PARSERS:
            raise ParameterError(
                f"option {self.name!r} has unknown type {self.type!r}; "
                f"choices: {sorted(_OPTION_PARSERS)}"
            )

    def validate(self, value: object) -> object:
        """Check ``value`` against the spec, returning the value to use.

        Type mismatches fail here with a :class:`ParameterError` naming the
        expected type, instead of surfacing as a ``TypeError`` deep inside
        the algorithm.
        """
        is_bool = isinstance(value, (bool, np.bool_))
        if self.type != "bool" and is_bool:
            raise ParameterError(
                f"option {self.name!r} expects a {self.type}, "
                f"got bool {value!r}"
            )
        if not isinstance(value, _OPTION_PYTHON_TYPES[self.type]):
            raise ParameterError(
                f"option {self.name!r} expects a {self.type}, "
                f"got {type(value).__name__} {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ParameterError(
                f"invalid value {value!r} for option {self.name!r}; "
                f"choices: {sorted(self.choices)}"
            )
        return value

    def parse(self, text: str) -> object:
        """Parse a CLI-style string value (``--option name=text``)."""
        try:
            value = _OPTION_PARSERS[self.type](text)
        except ValueError as exc:
            raise ParameterError(
                f"option {self.name!r} expects a {self.type}: {exc}"
            ) from exc
        return self.validate(value)


@dataclass(frozen=True)
class MethodSpec:
    """Registered decomposition method: metadata plus the implementation.

    ``func(graph, beta, *, seed=..., **options)`` must return a
    ``(decomposition, trace)`` pair; the engine wraps it into a
    ``PartitionResult``.  ``pinned`` options are forwarded on every call and
    are not user-overridable (alias methods use them).
    """

    name: str
    description: str
    kind: str
    func: Callable = field(repr=False)
    options: tuple[OptionSpec, ...] = ()
    pinned: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in GRAPH_KINDS:
            raise ParameterError(
                f"method {self.name!r} has unknown kind {self.kind!r}; "
                f"choices: {sorted(GRAPH_KINDS)}"
            )
        overlap = {o.name for o in self.options} & set(self.pinned)
        if overlap:
            raise ParameterError(
                f"method {self.name!r} pins options it also exposes: "
                f"{sorted(overlap)}"
            )

    @property
    def supports_unweighted(self) -> bool:
        return self.kind in ("unweighted", "any")

    @property
    def supports_weighted(self) -> bool:
        return self.kind in ("weighted", "any")

    def supports(self, graph_kind: str) -> bool:
        return {"unweighted": self.supports_unweighted,
                "weighted": self.supports_weighted}[graph_kind]

    def option(self, name: str) -> OptionSpec:
        """Look up one option spec by name (ParameterError when unknown)."""
        for spec in self.options:
            if spec.name == name:
                return spec
        raise ParameterError(
            f"method {self.name!r} has no option {name!r}; "
            f"accepted options: {sorted(o.name for o in self.options)}"
        )

    def bind(self, options: Mapping[str, object]) -> dict[str, object]:
        """Validate user options and merge with pinned values.

        Unknown names and out-of-domain values raise
        :class:`~repro.errors.ParameterError` listing the valid choices.
        Returns the keyword arguments to forward to :attr:`func` (defaults
        are left to the implementation's signature).
        """
        bound: dict[str, object] = {}
        for key, value in options.items():
            spec = self.option(key)  # raises with the accepted names
            bound[key] = spec.validate(value)
        bound.update(self.pinned)
        return bound


#: Shared option spec for the shifted-BFS hot-path engine.  Every
#: unweighted method registers it — the engine consumes the value (it
#: applies :func:`repro.bfs.kernels.use_kernel` around the method call and
#: never forwards ``kernel=`` to the implementation), so methods that do
#: not run the shifted BFS accept and ignore it, keeping batch sweeps over
#: methods × kernels uniform.
KERNEL_OPTION = OptionSpec(
    "kernel",
    "str",
    "auto",
    "shifted-BFS hot-path engine: 'native' (compiled extension, errors "
    "when not built), 'python' (pure numpy), or 'auto' (native when "
    "available); bit-identical results either way",
    choices=KERNEL_CHOICES,
)

#: name -> MethodSpec; mutate only through register_method.
_REGISTRY: dict[str, MethodSpec] = {}


def register_method(
    name: str,
    *,
    kind: str,
    description: str,
    options: tuple[OptionSpec, ...] | list[OptionSpec] = (),
    pinned: Mapping[str, object] | None = None,
    func: Callable | None = None,
):
    """Register a decomposition method (usable as decorator or function).

    As a decorator::

        @register_method("bfs", kind="unweighted", description="...")
        def partition_bfs(graph, beta, *, seed=None, ...): ...

    As a plain call (alias methods pin options of an existing callable)::

        register_method("permutation", kind="unweighted", func=partition_bfs,
                        pinned={"tie_break": "permutation"}, description="...")

    Duplicate names are rejected — re-registering would silently change the
    behaviour of every caller that resolves methods by name.
    """

    def _register(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise ParameterError(
                f"method {name!r} is already registered "
                f"({_REGISTRY[name].description!r}); method names must be "
                "unique"
            )
        _REGISTRY[name] = MethodSpec(
            name=name,
            description=description,
            kind=kind,
            func=fn,
            options=tuple(options),
            pinned=dict(pinned or {}),
        )
        return fn

    if func is not None:
        return _register(func)
    return _register


def get_method(name: str) -> MethodSpec:
    """Resolve a method name to its spec.

    Raises :class:`~repro.errors.ParameterError` naming the registered
    methods when the name is unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown method {name!r}; choices: {sorted(_REGISTRY)}"
        ) from None


def method_names(graph_kind: str | None = None) -> list[str]:
    """Sorted names of registered methods, optionally filtered by kind."""
    return sorted(
        name
        for name, spec in _REGISTRY.items()
        if graph_kind is None or spec.supports(graph_kind)
    )


def iter_methods(graph_kind: str | None = None) -> list[MethodSpec]:
    """Registered specs in name order, optionally filtered by kind."""
    return [get_method(name) for name in method_names(graph_kind)]


def describe_methods(graph_kind: str | None = None) -> list[dict]:
    """The registry as JSON-serialisable dicts, in name order.

    The machine-readable registry dump behind ``repro methods --json`` and
    the decomposition service's ``hello`` handshake: each entry carries the
    method's name, kind, description, option specs (name/type/default/
    choices) and pinned values, so remote clients can validate and parse
    option strings without importing the implementation modules.
    """
    return [
        {
            "name": spec.name,
            "kind": spec.kind,
            "description": spec.description,
            "options": [
                {
                    "name": opt.name,
                    "type": opt.type,
                    "default": opt.default,
                    "description": opt.description,
                    "choices": list(opt.choices) if opt.choices else None,
                }
                for opt in spec.options
            ],
            "pinned": dict(spec.pinned),
        }
        for spec in iter_methods(graph_kind)
    ]
