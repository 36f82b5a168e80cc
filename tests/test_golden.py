"""Byte identity of written files: the SHA-256 of each output, recorded on the
code that built hosts, gadgets and necklaces from arc tuples.  A change to how
digraphs are stored or built must leave every one of these bytes unchanged.
The density layer's exact outputs on the same hosts are pinned the same way,
recorded on the code whose steps after the sweep walked all n^2 entries."""

import hashlib
import json
import random

import pytest

from tournhom.cli import main
from tournhom.digraphs import format_digraph, save_digraph
from tournhom.gadgets import build_family, sample_base_tournament, toy_family
from tournhom.hosts import build_host, cycle_graph, single_edge_graph
from tournhom.spectral import density_matrices, graphon_pattern_check, xy_point
from tournhom.suites import _twin_planted_host

HOSTS = {
    # name: (graph, k values, multiplicities, vertex count, SHA-256 of format_digraph)
    "edge-r1": ("edge", [29], [1], 74,
                "f48da701810fe868d6a4d36b3470ca31584031102aab1073c25d68d9a34e09fe"),
    "edge-r2": ("edge", [29], [2], 148,
                "1baa872d2cfb66434e536423dd7163dcf66ce6fb6cb87ac63d0e98ad72ebda0b"),
    "c5-r1": ("c5", [29], [1], 365,
              "0135398d44447806a022cb52963d46ed9af42e4af3bb165606b70fe31701574e"),
    "edge-two-gadgets": ("edge", [29, 27], [1, 2], 222,
                         "b8c7b7368898b0bbc9911241320c6daf9d039cefc997b9a594b2e6e423293e9a"),
}
FILES = {
    "f.txt": "69bdeb7bc816561ae52fc0b541d804918ab2441e547f20fc5223977f3320d0e5",
    "fd.txt": "380f2919598043164d206db8a1229aeb95c6b06de0b31246add91aecd7bd7afb",
    "necklace.txt": "b93e66b6ade75ad1453addc76a325a905f927967ec0ddec5a2d264b72ad5cb43",
    "reduced.json": "cd9bc8a3e675946ec2f08e3f56d7544c31e41ecce9a3801c93cd41ee5eccc033",
}
# the density layer on the hosts above: the SHA-256 of the count matrices with
# their supports, of the block pattern verdicts, and of the exact (x, y) fields
DENSITY = {
    "edge-r1": (
        "ded0104145f1c94afe4241d6950a0e233fc14cade68f4b49df42340a2247c8cf",
        "1d7e1d8d47e194cf99f08e6fbd8c3b5834e6c7fa2ff898f210612906a14e8ffd",
        "041951c8d627b419bad4fed85f87447b6ecc3aff1a71b0c42c8d66b6bb6f52ad",
    ),
    "edge-r2": (
        "97a07359668f32924268eb228c1e0851400b10f95d056a56e1a5c0b06733a273",
        "24d6a6dc12ad2e82875178c02dc7b9816be70fea7df2481bdcdcbe6add3fa83c",
        "ed72280e465b9da8c75a014968123259fad3abc67f9d78edf80d91c9117065b5",
    ),
    "c5-r1": (
        "fec74635eb74b40dd000814ac02d618be36f3c52e2b6bf2df531f955ebebf909",
        "22968de68a1a3159e882425074ccde5c241ae62ac006110de4021219e38d8765",
        "806fb6af9856e173dad91c40ed57da8f5593c9eed59de6efe5718164425e8284",
    ),
    "edge-two-gadgets": (
        "533f4eae9da3d1dcd24549b15932054619cbc9b61fc64715e3dfba65da44172c",
        "017036b55cb4a1ab6bf8d4c5d1746a5672cb6c65ec3b2e233a1cc30ee81650e7",
        "9d7131fa48b8fe1a5119d5361abb47b84b15ebe41ce0b02eb7e600d544d2b427",
    ),
}
# four planted hosts of the claims suite drawn from one generator, in turn
TWIN_PLANTED = "afb1da4a3e0200f4f2c574cc97299d28942ddcce9bfea8cf9946c9641bacb3e4"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def base():
    return sample_base_tournament(36, 6, 11, seed=0).tournament


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_host_text(base, name):
    graph, k, r, n, digest = HOSTS[name]
    G = single_edge_graph() if graph == "edge" else cycle_graph(5)
    host, _ = build_host(G, build_family(base, k_values=k), r)
    assert (host.n, sha(format_digraph(host).encode())) == (n, digest)


@pytest.mark.parametrize("name", sorted(DENSITY))
def test_density_layer(base, name):
    graph, k, r, _, _ = HOSTS[name]
    G = single_edge_graph() if graph == "edge" else cycle_graph(5)
    family = build_family(base, k_values=k)
    host, atlas = build_host(G, family, r)
    dms = density_matrices(family.doubled, host)
    verdicts = [graphon_pattern_check(dm, atlas, i) for i, dm in enumerate(dms, start=1)]
    points = [xy_point(dm) for dm in dms]
    exact = [(p.x_exact, p.y_exact, p.p4, p.p8, p.p12) for p in points]
    got = [(dm.counts, dm.support) for dm in dms], verdicts, exact
    assert tuple(sha(repr(part).encode()) for part in got) == DENSITY[name]


def test_twin_planted_hosts_keep_their_draws(base):
    fam = build_family(base, k_values=[29, 27])
    rng = random.Random(2)
    hosts = [_twin_planted_host(g, dups=5, extras=3, rng=rng) for g in fam.gadgets * 2]
    assert sha("".join(map(format_digraph, hosts)).encode()) == TWIN_PLANTED


def test_cli_outputs(base, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_digraph("f0.txt", base)
    family = tmp_path / "family"
    family.mkdir()
    save_digraph(family / "f0.txt", toy_family(3, (2, 1)).base)
    (family / "family.json").write_text(json.dumps({"f0": "f0.txt", "k": [2, 1]}))
    (tmp_path / "p.txt").write_text("x1 - 2 x2")
    for command in (
        "build-gadget --f0 f0.txt --k 29 --out-f f.txt --out-fdagger fd.txt",
        "necklace --gadget f.txt --len 4 --out necklace.txt",
        "reduce --poly p.txt --family family --out reduced.json",
    ):
        assert main(command.split()) == 0
    assert {name: sha((tmp_path / name).read_bytes()) for name in FILES} == FILES
