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
from fractions import Fraction

import pytest

from oblique_simson import (
    EXACT,
    FloatBackend,
    Params,
    Point,
    audit_printed_formulas,
    build_scene,
    normalize_frame,
    run_checks,
)
from oblique_simson.cli import main
from oblique_simson.verify import SplitMix64

GOLDEN = ["--a", "1", "--b", "2", "--c", "3", "--t", "1/2"]
WIDE = ["--max-mag", str(10 ** 200), "--max-den", str(10 ** 200)]


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
    (["fuzz", "--seed", "5", "--count", "30", *WIDE],
     "9095540dff5b556e1fcb097735165ee6155503aa14ea4858ebc8b95d06080f20"),
    (["audit", "--seed", "9", "--count", "10", *WIDE],
     "176525dba644d6a7a3f594f85e1af11bade270193417d7bda1461072428fa3b8"),
], ids=["fuzz", "audit-seeded", "audit-float", "verify-float", "fuzz-1e200", "audit-1e200"])
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


# -- the library reports behind the CLI, pinned the same way --------------------------


def _draws(seed, count, mag, den):
    """Seeded (a, b, c, t) draws with distinct a, b, c; the first has t = 0."""
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        abc = []
        while len(abc) < 3:
            r = rng.rational(mag, den)
            if r not in abc:
                abc.append(r)
        out.append((*abc, Fraction(0) if i == 0 else rng.rational(mag, den)))
    return out


def _outcome(fn, *args) -> str:
    """repr of the result, or the exception type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the digest covers every raise
        return f"raise {type(exc).__name__}: {exc}"


def _checked(params):
    return run_checks(build_scene(params))


def _normalized(verts, j, probe):
    nf = normalize_frame(*verts, j)
    return (nf, nf.transform.identity, nf.transform.to_canonical(verts[1]),
            nf.transform.from_canonical(probe))


def _frame_outcomes(backend, raw):
    """normalize_frame on the canonical triangle (a, b, c) moved by the
    similarity w -> (1 + t + 2i) w + (a + ci), with J' on the circumcircle,
    off it, and at vertex A."""
    a, b, c, t = raw

    def place(x, y):
        return Point(backend.scalar((1 + t) * x - 2 * y + a),
                     backend.scalar((1 + t) * y + 2 * x + c))

    verts = [place(2 / (1 + p * p), 2 * p / (1 + p * p)) for p in (a, b, c)]
    return [_outcome(_normalized, verts, j, place(Fraction(1, 2), Fraction(1, 3)))
            for j in (place(0, 0), place(Fraction(-1, 10), 0), verts[0])]


def _report_lines():
    sweeps = [(EXACT, 10, 10, 30), (EXACT, 10 ** 6, 10 ** 6, 10)]
    sweeps += [(FloatBackend(eps), mag, den, 20) for eps in (1e-6, 1e-9)
               for mag, den in ((10, 10), (10, 1000), (1000, 10), (10 ** 4, 100))]
    for backend, mag, den, count in sweeps:
        for raw in _draws(5, count, mag, den):
            params = Params.make(*raw, backend=backend)
            yield _outcome(_checked, params)
            yield _outcome(audit_printed_formulas, params)
            yield from _frame_outcomes(backend, raw)


def test_report_sweep_digest():
    """run_checks, audit_printed_formulas and normalize_frame on seeded exact
    and float sweeps, raises included, hashed as one text."""
    assert _sha("\n".join(_report_lines())) == \
        "d5d244b780ca223e1acfc82108e76238fb22ef94e9f92039c1b08351e1d0f951"
