"""Golden digests of ``build_world``: the world layer is bit-stable.

The digests below were recorded from the per-session world builder
(one ``hourly_pmf`` per session, list-built timelines, per-``AdSlot``
epoch counting). Any rewrite of the world layer must reproduce them
exactly: the same sessions, the same timeline array bytes, the same
radio assignment and the same epoch slot counts — including for an
epoch length that does not divide a day.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import World, build_world
from repro.traces.stats import epoch_slot_counts

#: An epoch that does not divide the 86,400 s day.
ODD_EPOCH_S = 7000.0


def _world_digests(world: World, config: ExperimentConfig) -> dict[str, str]:
    sessions = hashlib.sha256()
    for user in world.trace.sorted_users():
        sessions.update(f"{user.user_id}|{user.platform}|".encode())
        for s in user.sessions:
            sessions.update(f"{s.user_id}|{s.app_id}|".encode())
            sessions.update(struct.pack("<dd", s.start, s.duration))
    timelines = hashlib.sha256()
    for uid, tl in world.timelines.items():
        timelines.update(f"{uid}|{tl.user_id}|{tl.platform}|".encode())
        for arr in (tl.times, tl.kinds, tl.payload):
            timelines.update(f"{arr.dtype.str}{arr.shape}".encode())
            timelines.update(arr.tobytes())
    profiles = hashlib.sha256()
    for uid, profile in world.profile_of.items():
        profiles.update(f"{uid}={profile.name};".encode())
    out = {"sessions": sessions.hexdigest(),
           "timelines": timelines.hexdigest(),
           "profile_of": profiles.hexdigest()}
    for epoch_s in (config.epoch_s, ODD_EPOCH_S):
        counts = hashlib.sha256()
        for uid, arr in epoch_slot_counts(world.trace, world.refresh_of,
                                          epoch_s).items():
            counts.update(f"{uid}|{arr.dtype.str}{arr.shape}|".encode())
            counts.update(arr.tobytes())
        out[f"counts@{epoch_s:g}"] = counts.hexdigest()
    return out


GOLDEN = {
    3: {
        "sessions": "43fb5676ff6e36ea27e62a005e3f9d64826b56eb04c6cd8631beb8562619af9c",
        "timelines": "1fb9ac5a2d061f11197396479a67abbd02d1fb94d010b4579785472a0363e9bd",
        "profile_of": "4f87d01463daa2c11b819033133355fcb56772440b5dd539e0891ef9fc010a79",
        "counts@3600": "4f69597c911e3950af32fba8a4b30707aa9034b9079f87f313948ddd8051c062",
        "counts@7000": "55f7372ce4ea75831de1169a312313ff5cfc04f627936bd468092b66a0c049cf",
    },
    11: {
        "sessions": "cfe7cf778301f639c6296a30aa4ab905499f9e430453d6b1d4f27fc15c481ce8",
        "timelines": "46d9bc1eded5ce5106b528c0463ae6641354b51951b72cf1ef047001f3e0f332",
        "profile_of": "0d8f3988a2542e3218a71ca53a9a79762c2f78053a53febd86f4165759649354",
        "counts@3600": "c210f92c4d544345f22c747ffc5675d1ed6f6e0fff3fe46c1d5af990df32e057",
        "counts@7000": "6c2d9886177aeef0a120be168e4b678cd97b6484416699d1931d590f0b154bbd",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_build_world_matches_golden_digests(seed):
    config = ExperimentConfig(n_users=40, n_days=5, train_days=3, seed=seed,
                              wifi_fraction=0.3)
    world = build_world(config)
    assert _world_digests(world, config) == GOLDEN[seed]
