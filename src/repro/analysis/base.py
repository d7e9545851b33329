"""The ``Analysis`` protocol and the shared construction machinery.

Every analysis class declares

* ``name`` — its registry key (``repro.analysis.registry.get(name)``),
* ``requires`` — the input keys its constructor takes, positionally
  (a trailing ``?`` marks an optional input, passed as ``None`` when
  absent),
* ``tables`` — the dataset tables it reads, checked up front against the
  dataset it is handed (:meth:`repro.data.Dataset.require_tables`),

and inherits :class:`RegisteredAnalysis.run`, which resolves those keys
against an :class:`AnalysisContext` and instantiates the class.  Drivers
— the CLI, the report generator, the benchmarks — construct analyses
only through this surface, never by hand-wiring constructors.

The context is *typed*: it accepts a
:class:`~repro.core.results.StudyResults` bundle, a
:class:`~repro.data.Dataset` (live-sealed or reloaded from a directory),
or a bare :class:`~repro.vantage.collector.CampaignCollector`, and
raises an explicit ``TypeError`` for anything else — no ``hasattr``
guessing.  Reloaded datasets resolve seed-deterministic inputs
(``vps``, ``catalog``, ``config``) from their recorded study
fingerprint; transfer sealing stays lazy so analyses that never touch
transfers never pay for zone cryptography.
"""

from __future__ import annotations

import sys
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.data.dataset import Dataset

#: Input keys an analysis may require from a study-results bundle
#: (everything else must be passed explicitly, e.g. a passive-capture
#: ``aggregate``).
BUNDLE_KEYS: Tuple[str, ...] = (
    "vps",
    "catalog",
    "fabric",
    "distributor",
    "deployments",
    "schedule",
    "config",
    "fault_plan",
)

#: Bundle keys a reloaded dataset can re-derive from its recorded study
#: fingerprint (pure functions of the seed; no simulation stage runs).
SEED_DERIVED_KEYS: Tuple[str, ...] = ("vps", "catalog", "config")


class AnalysisContext:
    """Typed resolution of analysis inputs.

    Values resolve lazily: asking whether a key is available
    (``key in context``) is cheap, and expensive derivations — sealing
    the transfer table, rebuilding the VP ring from a dataset's study
    fingerprint — only run when an analysis actually requires the key.
    """

    def __init__(self, results: Any = None, **inputs: Any) -> None:
        self._values: Dict[str, Any] = dict(inputs)
        self._providers: Dict[str, Callable[[], Any]] = {}
        if results is None:
            return

        from repro.vantage.collector import CampaignCollector

        # A StudyResults can only exist once its module is loaded; looking
        # it up instead of importing it keeps analysis-only processes off
        # the campaign stack.
        bundle = sys.modules.get("repro.core.results")
        if bundle is not None and isinstance(results, bundle.StudyResults):
            dataset = results.dataset
            for key in BUNDLE_KEYS:
                self._values.setdefault(key, getattr(results, key))
        elif isinstance(results, Dataset):
            dataset = results
            if dataset.study is not None:
                for key in SEED_DERIVED_KEYS:
                    self._providers.setdefault(
                        key, lambda key=key: dataset.study_inputs()[key]
                    )
        elif isinstance(results, CampaignCollector):
            dataset = Dataset.from_collector(results)
        else:
            raise TypeError(
                f"cannot build an analysis context from {type(results).__name__}; "
                f"expected StudyResults, Dataset, or CampaignCollector"
            )

        self._values.setdefault("dataset", dataset)
        if dataset.has_table("identities"):
            self._providers.setdefault("identities", lambda: dataset.identities)
        if dataset.has_table("transfers"):
            # Lazy: sealing runs zone cryptography on first access.
            self._providers.setdefault("transfers", lambda: dataset.transfers)

    def __contains__(self, key: str) -> bool:
        return key in self._values or key in self._providers

    def __getitem__(self, key: str) -> Any:
        if key in self._values:
            return self._values[key]
        provider = self._providers.get(key)
        if provider is None:
            raise KeyError(key)
        self._values[key] = provider()
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def keys(self) -> List[str]:
        """Every resolvable input key, sorted."""
        return sorted(set(self._values) | set(self._providers))


def build_context(results: Any = None, **inputs: Any) -> AnalysisContext:
    """Resolve the available analysis inputs.

    *results* may be a :class:`~repro.core.results.StudyResults` bundle,
    a :class:`~repro.data.Dataset`, or a bare collector; explicit
    keyword *inputs* always win.
    """
    return AnalysisContext(results, **inputs)


def requirement_key(requirement: str) -> Tuple[str, bool]:
    """Split a ``requires`` entry into (input key, optional?)."""
    if requirement.endswith("?"):
        return requirement[:-1], True
    return requirement, False


@runtime_checkable
class Analysis(Protocol):
    """What the registry expects of every analysis class."""

    name: ClassVar[str]
    requires: ClassVar[Tuple[str, ...]]
    tables: ClassVar[Tuple[str, ...]]

    @classmethod
    def run(cls, results: Any = None, **inputs: Any) -> "Analysis": ...


class RegisteredAnalysis:
    """Mixin turning a plain analysis class into a registry citizen.

    Subclasses set ``name``, ``requires`` and ``tables``; ``requires``
    must list the constructor's positional parameters by input key, in
    order, and ``tables`` the dataset tables the analysis reads.
    """

    name: ClassVar[str] = ""
    requires: ClassVar[Tuple[str, ...]] = ()
    tables: ClassVar[Tuple[str, ...]] = ()

    @classmethod
    def run(cls, results: Any = None, **inputs: Any):
        """Instantiate this analysis from a results bundle, dataset
        and/or explicit inputs."""
        context = build_context(results, **inputs)
        args = []
        missing = []
        for requirement in cls.requires:
            key, optional = requirement_key(requirement)
            if key in context:
                value = context[key]
                if key == "dataset" and isinstance(value, Dataset):
                    value.require_tables(cls.tables, consumer=f"analysis {cls.name!r}")
                args.append(value)
            elif optional:
                args.append(None)
            else:
                missing.append(key)
        if missing:
            raise KeyError(
                f"analysis {cls.name!r} is missing required inputs {missing}; "
                f"available: {context.keys()}"
            )
        return cls(*args)

    @classmethod
    def satisfied_by(cls, context: AnalysisContext) -> bool:
        """Whether *context* covers every non-optional requirement."""
        return all(
            requirement_key(r)[0] in context or requirement_key(r)[1]
            for r in cls.requires
        )
