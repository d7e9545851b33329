"""Counter-based client populations at paper magnitude.

:func:`repro.passive.clients.build_client_population` walks a
:class:`random.Random` stream client by client; the draw *order* is the
deterministic contract, so nothing about it can vectorize and a 10⁵–10⁶
client population costs minutes of pure-Python RNG calls.  This module
is the scaling engine behind it: every draw is keyed by
``(population, client_id, purpose)`` through the splitmix64 mixer
(:mod:`repro.netsim.mix`), so the whole population evaluates as a
handful of array kernels (:func:`compile_population`).
:func:`build_population_clients` replays the identical chain one client
at a time as the golden reference the tests compare against; it lives
here because it shares the draw helpers.

Both paths use *numpy* transcendentals (``np.exp``/``np.log1p``/
``np.sqrt``/``np.cos``): numpy ufuncs are elementwise-deterministic
(a full-array call bit-matches the one-element call), while ``math.exp``
and ``math.log`` do **not** bit-match their numpy counterparts — so the
reference must draw through numpy scalars for the pair to be
byte-identical.  ``tests/passive/test_population_engine.py`` pins the
equivalence per profile, volume-aware and stratified.

The legacy ``random.Random`` population is left untouched (its draw
order cannot be replayed by keyed draws); existing captures keep their
golden outputs, and the paper-scale path opts into this engine.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.netsim.mix import mix64_array, mix64_prefix, mix_str
from repro.passive.clients import (
    ClientBehavior,
    ClientNetwork,
    PopulationProfile,
    client_prefix_v4,
    client_prefix_v6,
)
from repro.rss.operators import B_ROOT_CHANGE_TS
from repro.util.timeutil import DAY, Timestamp

_TWO64 = float(1 << 64)
_TWO_PI = 6.283185307179586476925287

#: Lognormal flow-volume shape shared with the legacy builder: median
#: ~30 flows/day, heavy tail.
_LOG_MEDIAN = 3.4011973816621555  # log(30.0)
_SIGMA = 1.8

#: Volume-aware switching: above this many daily flows the reluctance
#: probability decays as sqrt(100/volume) (see clients._draw_behavior).
_VOLUME_KNEE = 100.0

#: Draw-purpose labels (the mixer counter): one label per independent
#: decision, family-separated where the decision is per family.
_U_VOLUME_1 = 1
_U_VOLUME_2 = 2
_U_DUAL = 3
_U_RELUCTANT = 4
_U_PRIMER = 5
_U_SHUFFLE = 6
_U_DELAY = 7

#: Behaviour codes used internally (int8 grids).
_SWITCHER, _RELUCTANT, _PRIMER = 0, 1, 2

_CODE_TO_BEHAVIOR = {
    _SWITCHER: ClientBehavior.SWITCHER,
    _RELUCTANT: ClientBehavior.RELUCTANT,
    _PRIMER: ClientBehavior.PRIMER,
}

def population_state(profile: PopulationProfile, base_seed: int) -> int:
    """The mixer state of one population (absorbs seed + profile name)."""
    return mix64_prefix(base_seed, mix_str("population", profile.name))


def _states(profile: PopulationProfile, base_seed: int) -> np.ndarray:
    ids = np.arange(profile.n_clients, dtype=np.uint64)
    return mix64_array(population_state(profile, base_seed), ids)


def _uniform(state, *labels: int):
    """U[0, 1) keyed draw; works on the full state array or one scalar."""
    h = state
    for label in labels:
        h = mix64_array(h, np.uint64(label))
    return h / _TWO64


def _volumes(state) -> np.ndarray:
    """Lognormal daily flows via Box-Muller over two keyed uniforms."""
    u1 = _uniform(state, _U_VOLUME_1)
    u2 = _uniform(state, _U_VOLUME_2)
    # log1p(-u1) keeps the log argument in (0, 1]: u1 = 0 is safe.
    z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(_TWO_PI * u2)
    return np.exp(_LOG_MEDIAN + _SIGMA * z)


def _reluctant_prob(switch_fraction: float, volumes, volume_aware: bool):
    base = 1.0 - switch_fraction
    if not volume_aware:
        return base
    return np.where(
        volumes > _VOLUME_KNEE,
        base * np.sqrt(_VOLUME_KNEE / volumes),
        base,
    )


def _behavior_codes_volume_aware(
    state, family: int, volumes, switch_fraction: float, primer_share: float
) -> np.ndarray:
    reluctant = _uniform(state, _U_RELUCTANT, family) < _reluctant_prob(
        switch_fraction, volumes, True
    )
    primer = ~reluctant & (_uniform(state, _U_PRIMER, family) < primer_share)
    return np.where(
        reluctant, _RELUCTANT, np.where(primer, _PRIMER, _SWITCHER)
    ).astype(np.int8)


def _behavior_codes_stratified(
    state: np.ndarray,
    family: int,
    volumes: np.ndarray,
    switch_fraction: float,
    primer_share: float,
) -> np.ndarray:
    """Traffic-weighted reluctant stratum (clients.py semantics): walk a
    keyed shuffle of the population, marking clients reluctant while the
    accumulated volume is under ``(1 - switch_fraction) * total``."""
    order = np.argsort(mix64_array(state, np.uint64(_U_SHUFFLE), np.uint64(family)), kind="stable")
    ordered = volumes[order]
    csum = np.cumsum(ordered)
    total = csum[-1] if len(csum) else 0.0
    budget = (1.0 - switch_fraction) * total
    # The volume *before* each client in walk order.  A shifted copy of
    # the cumsum, NOT ``csum - ordered``: subtracting back is not exact
    # in floats, and the scalar walk compares the exact running sum.
    exclusive = np.concatenate([[0.0], csum[:-1]])
    reluctant_in_order = exclusive < budget
    reluctant = np.empty(len(volumes), dtype=bool)
    reluctant[order] = reluctant_in_order
    primer = ~reluctant & (_uniform(state, _U_PRIMER, family) < primer_share)
    return np.where(
        reluctant, _RELUCTANT, np.where(primer, _PRIMER, _SWITCHER)
    ).astype(np.int8)


def _adoption_ts(state, mean_delay_days: float, change_ts: Timestamp):
    """Exponential adoption delay via inverse CDF on a keyed uniform."""
    u = _uniform(state, _U_DELAY)
    delay_days = -np.log1p(-u) * mean_delay_days
    return change_ts + (delay_days * DAY).astype(np.int64)


def compile_population(
    profile: PopulationProfile,
    base_seed: int,
    change_ts: Timestamp = B_ROOT_CHANGE_TS,
):
    """Compile a profile straight into :class:`ClientColumns`.

    Evaluates the population as array kernels, with no per-client Python
    objects: the only affordable path at 10⁵–10⁶ clients.  Compiling
    :func:`build_population_clients` gives the same bytes.
    """
    from repro.passive.flow_engine import ClientColumns

    n = profile.n_clients
    state = _states(profile, base_seed)
    volumes = _volumes(state)
    dual = _uniform(state, _U_DUAL) < profile.ipv6_share

    if profile.volume_aware_switching:
        codes4 = _behavior_codes_volume_aware(
            state, 4, volumes, profile.switch_fraction_v4, profile.primer_share_v4
        )
        codes6 = _behavior_codes_volume_aware(
            state, 6, volumes, profile.switch_fraction_v6, profile.primer_share_v6
        )
    else:
        codes4 = _behavior_codes_stratified(
            state, 4, volumes, profile.switch_fraction_v4, profile.primer_share_v4
        )
        codes6 = _behavior_codes_stratified(
            state,
            6,
            np.where(dual, volumes, 0.0),
            profile.switch_fraction_v6,
            profile.primer_share_v6,
        )

    prefixes_v4: Tuple[str, ...] = tuple(client_prefix_v4(i) for i in range(n))
    prefixes_v6 = tuple(
        client_prefix_v6(i) if dual[i] else None for i in range(n)
    )
    return ClientColumns(
        client_ids=np.arange(n, dtype=np.uint64),
        volumes=volumes,
        has_v6=dual,
        adoption_ts=_adoption_ts(
            state, profile.mean_adoption_delay_days, change_ts
        ),
        switchish={
            4: codes4 != _RELUCTANT,
            6: dual & (codes6 != _RELUCTANT),
        },
        primer={
            4: codes4 == _PRIMER,
            6: dual & (codes6 == _PRIMER),
        },
        prefixes={4: prefixes_v4, 6: prefixes_v6},
    )


def build_population_clients(
    profile: PopulationProfile,
    base_seed: int,
    change_ts: Timestamp = B_ROOT_CHANGE_TS,
) -> List[ClientNetwork]:
    """The scalar golden reference: one client at a time, every draw
    keyed through the same mixer chain as :func:`compile_population`
    (numpy scalar transcendentals, so the bits match the array path).

    No runtime path calls it; ``tests/passive/test_population_engine.py``
    compiles it with ``ClientColumns.from_clients`` and compares."""
    prefix = np.uint64(population_state(profile, base_seed))
    clients: List[ClientNetwork] = []
    shuffle_keys = {
        family: [
            int(mix64_array(mix64_array(prefix, np.uint64(i)), np.uint64(_U_SHUFFLE), np.uint64(family)))
            for i in range(profile.n_clients)
        ]
        for family in (4, 6)
    }
    per_client = []
    for client_id in range(profile.n_clients):
        state = mix64_array(prefix, np.uint64(client_id))
        volume = float(_volumes(state))
        dual = bool(_uniform(state, _U_DUAL) < profile.ipv6_share)
        per_client.append((state, volume, dual))

    def stratified(family: int, switch_fraction: float, primer_share: float):
        volumes = [
            (volume if family == 4 or dual else 0.0)
            for _state, volume, dual in per_client
        ]
        order = sorted(
            range(len(volumes)), key=shuffle_keys[family].__getitem__
        )
        total = 0.0
        for idx in order:
            total += volumes[idx]
        budget = (1.0 - switch_fraction) * total
        behaviors = [ClientBehavior.SWITCHER] * len(volumes)
        acc = 0.0
        for idx in order:
            if acc < budget:
                behaviors[idx] = ClientBehavior.RELUCTANT
                acc += volumes[idx]
            elif (
                _uniform(per_client[idx][0], _U_PRIMER, family) < primer_share
            ):
                behaviors[idx] = ClientBehavior.PRIMER
        return behaviors

    if not profile.volume_aware_switching:
        strat = {
            4: stratified(
                4, profile.switch_fraction_v4, profile.primer_share_v4
            ),
            6: stratified(
                6, profile.switch_fraction_v6, profile.primer_share_v6
            ),
        }

    for client_id, (state, volume, dual) in enumerate(per_client):
        behaviors = {}
        for family, switch_fraction, primer_share in (
            (4, profile.switch_fraction_v4, profile.primer_share_v4),
            (6, profile.switch_fraction_v6, profile.primer_share_v6),
        ):
            if profile.volume_aware_switching:
                code = int(
                    _behavior_codes_volume_aware(
                        state, family, volume, switch_fraction, primer_share
                    )
                )
                behaviors[family] = _CODE_TO_BEHAVIOR[code]
            else:
                behaviors[family] = strat[family][client_id]
        clients.append(
            ClientNetwork(
                client_id=client_id,
                prefix_v4=client_prefix_v4(client_id),
                prefix_v6=client_prefix_v6(client_id) if dual else None,
                daily_flows=volume,
                behavior_v4=behaviors[4],
                behavior_v6=behaviors[6] if dual else None,
                adoption_ts=int(
                    _adoption_ts(
                        state, profile.mean_adoption_delay_days, change_ts
                    )
                ),
            )
        )
    return clients
