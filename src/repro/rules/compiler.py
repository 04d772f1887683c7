"""Compile validated rule packs into :class:`AnalyzerProfile` form.

The load→compile→fingerprint flow:

1. **load** (:mod:`repro.rules.loader`): parse + validate the pack file,
   hash its raw bytes into a 16-hex content hash.
2. **compile** (this module): intern the pack's kinds into the open
   :class:`VulnKind` registry, widen the base profile's ``ALL_KINDS``
   entries to the new kind universe (so ``$_GET`` carries SSRF taint
   once an SSRF pack is loaded), merge collision entries (a pack adding
   a ``traversal`` kind to ``basename`` unions with the builtin LFI
   filter instead of shadowing it), and append the pack's own specs.
3. **fingerprint**: the compiled profile records each pack's
   ``(name, version, content_hash)``; ``AnalyzerProfile.fingerprint()``
   folds those in, so summary/disk cache keys and the service
   analyzer fingerprint all shift whenever pack content shifts.

``resolve_profile`` is the single entry point both ``PhpSafe`` and the
service fingerprint use, so an analyzer and the cache keys protecting
its results can never disagree about what was loaded.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..config.entries import (
    FilterSpec,
    PropagationSpec,
    RevertSpec,
    SinkSpec,
    SourceSpec,
)
from ..config.profiles import (
    AnalyzerProfile,
    drupal,
    generic_php,
    joomla,
    pixy_2007,
    wordpress,
)
from ..config.vulnerability import ALL_KINDS, InputVector, VulnKind
from .loader import load_pack
from .model import PackError, PackIssue, RulePack

#: Named base profiles selectable via ``--profile`` (CLI and service).
BASE_PROFILES = {
    "wordpress": wordpress,
    "drupal": drupal,
    "joomla": joomla,
    "generic": generic_php,
    "generic-php": generic_php,
    "pixy-2007": pixy_2007,
}


def base_profile(name: str) -> AnalyzerProfile:
    """Build the named base profile, or raise a typed :class:`PackError`."""
    try:
        factory = BASE_PROFILES[name]
    except KeyError:
        raise PackError(
            [
                PackIssue(
                    name,
                    "<profile>",
                    "unknown profile; expected one of "
                    + ", ".join(sorted(BASE_PROFILES)),
                )
            ]
        ) from None
    return factory()


def compile_packs(
    base: AnalyzerProfile, packs: Sequence[RulePack]
) -> AnalyzerProfile:
    """Layer ``packs`` onto ``base``, returning a new profile."""
    if not packs:
        return base

    # 1. intern the packs' kinds (metadata lands on the registry, where
    # the SARIF exporter picks it up; identity is value-only)
    extra_kinds: List[VulnKind] = []
    for pack in packs:
        for decl in pack.kinds:
            kind = VulnKind.register(decl.value, decl.title, decl.description)
            if kind not in ALL_KINDS and kind not in extra_kinds:
                extra_kinds.append(kind)
    universe = (
        ALL_KINDS if not extra_kinds else frozenset(ALL_KINDS | set(extra_kinds))
    )

    def expand(kind_values: Tuple[str, ...]) -> frozenset:
        if "*" in kind_values:
            return universe
        return frozenset(VulnKind(value) for value in kind_values)

    # 2. widen: base entries declared over the full builtin set meant
    # "every kind there is" — keep that meaning under the larger universe
    sources = list(base.sources)
    filters = list(base.filters)
    reverts = list(base.reverts)
    sinks = list(base.sinks)
    propagation = list(base.propagation)
    if extra_kinds:
        sources = [
            replace(spec, kinds=universe) if spec.kinds == ALL_KINDS else spec
            for spec in sources
        ]
        filters = [
            replace(spec, kinds=universe) if spec.kinds == ALL_KINDS else spec
            for spec in filters
        ]
        reverts = [
            replace(spec, kinds=universe) if spec.kinds == ALL_KINDS else spec
            for spec in reverts
        ]
        propagation = [
            replace(spec, kinds=universe) if spec.kinds == ALL_KINDS else spec
            for spec in propagation
        ]

    def source_key(spec: SourceSpec) -> Tuple[str, str, bool]:
        return (
            (spec.class_name or "").lower(),
            spec.name.lower(),
            spec.is_superglobal,
        )

    def name_key(spec) -> Tuple[str, str]:
        return ((getattr(spec, "class_name", None) or "").lower(), spec.name.lower())

    source_index: Dict[Tuple[str, str, bool], int] = {
        source_key(spec): index for index, spec in enumerate(sources)
    }
    filter_index: Dict[Tuple[str, str], int] = {
        name_key(spec): index for index, spec in enumerate(filters)
    }
    revert_index: Dict[str, int] = {
        spec.name.lower(): index for index, spec in enumerate(reverts)
    }
    propagation_index: Dict[Tuple[str, str], int] = {
        name_key(spec): index for index, spec in enumerate(propagation)
    }
    sink_identities = {
        (name_key(spec), spec.kind) for spec in sinks
    }

    # 3. merge each pack's entries; collisions union kinds rather than
    # shadowing, so a pack can *extend* a builtin filter or source
    for pack in packs:
        for decl in pack.sources:
            kinds = expand(decl.kinds)
            key = ((decl.class_name or "").lower(), decl.name.lower(), decl.superglobal)
            at = source_index.get(key)
            if at is not None:
                existing = sources[at]
                sources[at] = replace(existing, kinds=existing.kinds | kinds)
                continue
            spec = SourceSpec(
                name=decl.name,
                vector=InputVector(decl.vector),
                kinds=kinds,
                class_name=decl.class_name,
                is_superglobal=decl.superglobal,
                description=decl.description,
            )
            source_index[key] = len(sources)
            sources.append(spec)
        for decl in pack.sinks:
            kind = VulnKind(decl.kind)
            identity = (((decl.class_name or "").lower(), decl.name.lower()), kind)
            if identity in sink_identities:
                continue  # base already sinks this name for this kind
            sink_identities.add(identity)
            sinks.append(
                SinkSpec(
                    name=decl.name,
                    kind=kind,
                    class_name=decl.class_name,
                    tainted_args=decl.args,
                    description=decl.description,
                )
            )
        for decl in pack.filters:
            kinds = expand(decl.kinds)
            key = ((decl.class_name or "").lower(), decl.name.lower())
            at = filter_index.get(key)
            if at is not None:
                existing = filters[at]
                filters[at] = replace(existing, kinds=existing.kinds | kinds)
                continue
            filter_index[key] = len(filters)
            filters.append(
                FilterSpec(
                    name=decl.name,
                    kinds=kinds,
                    class_name=decl.class_name,
                    description=decl.description,
                )
            )
        for decl in pack.reverts:
            kinds = expand(decl.kinds)
            at = revert_index.get(decl.name.lower())
            if at is not None:
                existing = reverts[at]
                reverts[at] = replace(existing, kinds=existing.kinds | kinds)
                continue
            revert_index[decl.name.lower()] = len(reverts)
            reverts.append(
                RevertSpec(
                    name=decl.name, kinds=kinds, description=decl.description
                )
            )
        for decl in pack.propagation:
            kinds = expand(decl.kinds)
            key = ((decl.class_name or "").lower(), decl.name.lower())
            at = propagation_index.get(key)
            if at is not None:
                existing = propagation[at]
                propagation[at] = replace(existing, kinds=existing.kinds | kinds)
                continue
            propagation_index[key] = len(propagation)
            propagation.append(
                PropagationSpec(
                    name=decl.name,
                    kinds=kinds,
                    arg_indices=decl.args,
                    class_name=decl.class_name,
                    description=decl.description,
                )
            )

    return AnalyzerProfile(
        name=base.name + "+" + ",".join(pack.name for pack in packs),
        sources=tuple(sources),
        filters=tuple(filters),
        reverts=tuple(reverts),
        sinks=tuple(sinks),
        propagation=tuple(propagation),
        instances=base.instances,
        register_globals=base.register_globals,
        packs=base.packs + tuple(pack.pack_id for pack in packs),
    )


def resolve_profile(options) -> AnalyzerProfile:
    """The profile an analyzer configured with ``options`` will consult.

    Reads ``options.profile_name`` (named base profile; falls back to
    the legacy ``wordpress_config`` switch) and ``options.rule_packs``
    (shipped names or file paths).  Both ``PhpSafe.__init__`` and the
    service's analyzer fingerprint call this, so cache keys and the
    running analyzer are derived from the same resolution and can never
    drift apart.  Raises :class:`PackError` (typed issues, no
    tracebacks) for unknown profiles or invalid packs.
    """
    profile_name: Optional[str] = getattr(options, "profile_name", None)
    pack_refs = tuple(getattr(options, "rule_packs", ()) or ())
    if profile_name:
        base = base_profile(profile_name)
    elif getattr(options, "wordpress_config", True):
        base = wordpress()
    else:
        base = generic_php()
    if not pack_refs:
        return base
    return compile_packs(base, [load_pack(ref) for ref in pack_refs])
