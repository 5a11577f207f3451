"""Behaviour fingerprint: exact solver outputs on a fixed seeded list.

Each entry solves one generated instance and compares the status, the
round count, both basic-procedure iteration counts and the sizes of B and
N exactly, and the x / x_hat bytes through their sha256.  A change that is
meant to leave the solver"s arithmetic alone must leave every entry as it
is; a change that moves one is an algorithm change and updates the table
on purpose.
"""

import hashlib

import pytest

from epra_kit.epra import EpraConfig, solve
from epra_kit.instances import gen_controlled, gen_naive, gen_partitioned

# (family, size, seed, EpraConfig overrides,
#  (status, rounds, bp_iters_primal, bp_iters_dual, |B|, |N|),
#  sha256 of x.tobytes() + x_hat.tobytes())
FINGERPRINT = [
    ("controlled", (15, 30), 0, {},
     ("trivial_primal", 8, 76, 101, 30, 0),
     "96b561d5ea0896ab583c003322d2ff3be57d68b11a9ef8d0d01654cb08d60a1b"),
    ("controlled", (15, 30), 2, {"rescale_mode": "single"},
     ("trivial_primal", 43, 446, 298, 30, 0),
     "507d54e8d1e6587ac1f951c070194b31b8940b8396dc0a46d349c7e665355836"),
    ("controlled", (15, 30), 2, {"scheme": "perceptron"},
     ("trivial_primal", 9, 859, 827, 30, 0),
     "f8332ab5a73e9709a904775058380adb49210bba70228cb206d5f8db8c1d9353"),
    ("controlled", (15, 30), 2, {"scheme": "vn"},
     ("trivial_primal", 6, 8062, 5473, 30, 0),
     "fd4668a61e8c75831cfad1992482376d99c0198f23e15b3b01c918f3e994979c"),
    ("controlled", (15, 30), 0, {"scheme": "vna"},
     ("trivial_primal", 11, 501, 1051, 30, 0),
     "fdda3beb64ca02926eefcf7fdacabd361730dee3b3ac7a4cce2070b49eb04eec"),
    ("controlled", (15, 30), 1, {"U": 100.0},
     ("trivial_primal", 8, 110, 87, 30, 0),
     "0c77e9f959d83c453a6b088943e937863c3d77b990c64a82d8eb6d97b43016c7"),
    ("controlled", (15, 30), 1, {"bp_max_iters": 8},
     ("stalled", 2, 23, 24, 0, 0),
     "46b0d9e57fb8e729cf9db8a95d29d3a282629c7b7badb4f7ce7681bc8ca653d9"),
    ("controlled", (100, 200), 0, {},
     ("trivial_primal", 10, 517, 435, 200, 0),
     "f0263febb9fed21923601d76fa3668511b3e5e2394180b70dc1ac9a7863e4b28"),
    ("naive", (10, 30), 1, {"scheme": "perceptron"},
     ("trivial_primal", 0, 94, 23, 30, 0),
     "0310c65e0ea011fa441e6d558e9c188d40c876022131f05a77a05e014c8ae54b"),
    ("naive", (15, 30), 0, {"scheme": "vn", "rescale_mode": "single"},
     ("trivial_primal", 0, 143, 181, 30, 0),
     "fab769a91a42b9feda49fd714caa1ba4d0dc4d77f8069577b8bd692ec7575c2b"),
    ("naive", (22, 30), 0, {},
     ("trivial_dual", 0, 7, 9, 0, 30),
     "fe240cb3f8730d547c0570037ae7cf75c23a01cec3ffb2c1d8a8d1bfbef3c6e4"),
    ("naive", (25, 30), 1, {"scheme": "vna"},
     ("trivial_dual", 0, 6, 23, 0, 30),
     "b384e1ffa20443d6debd66c11df3e64b3520967048a97eff20dbb22c43ce4ed2"),
    ("naive", (100, 1000), 0, {},
     ("trivial_primal", 0, 2, 3, 1000, 0),
     "edbd52db576b52ea1be81826f8c855a563f841f5fee80f20d8d9ff4801636cc8"),
    ("partitioned", (30,), 0, {},
     ("partition_found", 17, 192, 126, 20, 10),
     "31963ddf1c38142bbf16a043d26e955482a438a0702a7e86bf120f54d801e805"),
    ("partitioned", (30,), 1, {"rescale_mode": "single"},
     ("round_limit", 100, 637, 771, 0, 0),
     "967f9ac5b80c576374921a68c32da005c635e6fb2bca5294e4e626cf672a67bd"),
    ("partitioned", (30,), 2, {"scheme": "perceptron"},
     ("stalled", 61, 355, 860, 0, 0),
     "bd7da172636448a5294461505f9701ede89ae6a8e40cc3fc43a6ee107b05ce99"),
    ("partitioned", (30,), 1, {"scheme": "vna"},
     ("stalled", 36, 1234, 2454, 14, 13),
     "215e2cd768a779a078fee19e4fcdf1da3b31740b8a8c1d97c3f71a10e304d5e7"),
    ("partitioned", (30,), 2, {"scheme": "vna"},
     ("partition_found", 35, 1627, 644, 20, 10),
     "bac57c4abdeb1be5638aaeb6463e4840ac35adc37aa2d4cdd419c5768d36992e"),
    ("partitioned", (30,), 0, {"U": 100.0},
     ("partition_found", 4, 49, 35, 20, 10),
     "327f285aa000826008392b50af1b085ffd1995cb4a991dc404600491f915681a"),
    ("partitioned", (30,), 0, {"bp_max_iters": 8},
     ("stalled", 83, 672, 484, 20, 0),
     "b0ea4fa48325296034712fe8e1359d7724db392bbb2d9a05f0816341a266160c"),
]


def _instance(family, size, seed):
    if family == "controlled":
        return gen_controlled(*size, seed=seed)
    if family == "naive":
        return gen_naive(*size, seed)
    return gen_partitioned(size[0], seed)


def _case_id(case):
    family, size, seed, overrides = case[:4]
    shape = "x".join(map(str, size))
    options = "-".join(f"{k}={v}" for k, v in overrides.items()) or "default"
    return f"{family}-{shape}-seed{seed}-{options}"


@pytest.mark.parametrize(
    "family, size, seed, overrides, counts, digest",
    FINGERPRINT,
    ids=[_case_id(case) for case in FINGERPRINT],
)
def test_fingerprint(family, size, seed, overrides, counts, digest):
    res = solve(_instance(family, size, seed), EpraConfig(**overrides))
    got = (res.status, res.rounds, res.bp_iters_primal, res.bp_iters_dual,
           len(res.B), len(res.N))
    assert got == counts
    assert hashlib.sha256(res.x.tobytes() + res.x_hat.tobytes()).hexdigest() == digest
