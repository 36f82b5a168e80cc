"""Byte identity of written files: the SHA-256 of each output, recorded on the
code that built hosts, gadgets and necklaces from arc tuples.  A change to how
digraphs are stored or built must leave every one of these bytes unchanged."""

import hashlib
import json
import random

import pytest

from tournhom.cli import main
from tournhom.digraphs import format_digraph, save_digraph
from tournhom.gadgets import build_family, sample_base_tournament, toy_family
from tournhom.hosts import build_host, cycle_graph, single_edge_graph
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
