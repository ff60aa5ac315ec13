"""The byte-identical output contract of the command line, pinned by digest.

Each case runs one command in-process and compares the SHA-256 of its stdout
(and of the files it writes) with a recorded digest.  A refactor that keeps
the contract keeps every digest; any change to a printed value, its format,
the order of lines, the SplitMix64 stream or the JSON/SVG writers breaks one.
When the output is meant to change, record the new digests from the command
line, e.g. ``oblique-simson fuzz --seed 42 --count 200 --include-t-zero |
sha256sum``.
"""

import hashlib

import pytest

from oblique_simson.cli import main

GOLDEN = ["--a", "1", "--b", "2", "--c", "3", "--t", "1/2"]


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", [
    (["fuzz", "--seed", "42", "--count", "200", "--include-t-zero"],
     "e688406dc8dfbdccc8fc17b5889da877649ebd514c24f9de14a45c836e1c3661"),
    (["audit", "--seed", "7", "--count", "100"],
     "9313925e7ac5e6fbdbaf0c851347d18816497104e93af5a31c87bd66504f51ee"),
    (["audit", *GOLDEN, "--backend", "float"],
     "a0e52dfe9b1fe938f4bca116915e4fa0640e2ac4d568946df9f09351612ef5e6"),
    (["verify", "--a", "-3/7", "--b", "5/2", "--c", "9", "--t", "0",
      "--backend", "float", "--eps", "1e-6"],
     "8d3b77f70a1994942c1911e327293f42d45aa99505e5fccdc74e78de9537f3b6"),
], ids=["fuzz", "audit-seeded", "audit-float", "verify-float"])
def test_stdout_digest(argv, digest, capsys):
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out) == digest


@pytest.mark.parametrize("backend,digests", [
    ("exact", ("a1478c2b8fb45054536cea6b304706fe04453c39d304d56af59d112513293346",
               "fd8b6e4ef50ecf30d8d1c70148da581fca8788357ed24ae6d2b19879ab024115",
               "688781ea144d762b1cac3ad88b4d626c9468460a5707a13eef510d8b3ddab673")),
    ("float", ("00251abbdd12c3b21ec8439d39b7a232753ca8585daf1942a8c9fc6690825050",
               "0fe51ed8543400c7e81b60d2fbf6e2db251f9bdd20d842ea1c10895c073cc315",
               "688781ea144d762b1cac3ad88b4d626c9468460a5707a13eef510d8b3ddab673")),
], ids=["exact", "float"])
def test_construct_digests(backend, digests, tmp_path, capsys):
    out_json, out_svg = tmp_path / "scene.json", tmp_path / "scene.svg"
    assert main(["construct", *GOLDEN, "--backend", backend,
                 "--json", str(out_json), "--svg", str(out_svg)]) == 0
    got = (_sha(capsys.readouterr().out), _sha(out_json.read_text()),
           _sha(out_svg.read_text()))
    assert got == digests
