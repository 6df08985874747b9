"""Golden CLI outputs: the sha256 of stdout for a fixed matrix of cheap commands.

The matrix covers every ``--level``, JSON and CSV output, ``--stats``, the
template pipeline (``--truncate``, ``--reduce``, ``--expand``), a ramified
base field (e = 2), F_4, F_9, F_8, F_25 and F_625 with a non-trivial
uniformizer residue (``--gamma g``), ``analyze`` on integer and on digit-table JSON input
(dense tables of degree 64 over Q_2 and 27 over Q_3 among them, where the
forward pass skips most abscissas), and one ``selftest`` case.  A refactor
that keeps outputs byte-identical keeps every hash; a deliberate change of
output must update the hash it moves.
"""

import hashlib
import json
import time

import pytest

from ramify import binomials, cli, serialize
from ramify.residue_field import make_field
from reference import ramification_points

# a monic Eisenstein polynomial of degree 4 over Q_2 with residue field F_4
F4_POLYNOMIAL = {
    "n": 4,
    "digits": [
        {"i": 0, "k": 1, "residue": "1,1"},
        {"i": 0, "k": 2, "residue": "0,1"},
        {"i": 1, "k": 2, "residue": "1"},
        {"i": 2, "k": 1, "residue": "0,1"},
        {"i": 3, "k": 3, "residue": "1,1"},
    ],
}


def dense_table(p, n, depth=3):
    """Every coefficient below x^n nonzero, with ``depth`` digits from a varied valuation."""
    digits = []
    for i in range(n):
        lead = 1 if i == 0 else 1 + (4 * i * i + i + 6) % 7
        for k in range(lead, lead + depth):
            digits.append({"i": i, "k": k, "residue": str(1 + (i + k) % (p - 1))})
    return {"n": n, "digits": digits}


DOCUMENTS = {
    "{F4_POLYNOMIAL}": F4_POLYNOMIAL,
    "{DENSE_Q2_64}": dense_table(2, 64),
    "{DENSE_Q3_27}": dense_table(3, 27),
}

GOLDEN = [
    ("ram-q2-8-stats",
     ["enumerate", "--p", "2", "--degree", "8", "--level", "ram", "--stats"],
     "11a2ad9411da0e62e96ee3b58eb1f5e1d99e3724a05c492d3179450b0e4df80f"),
    ("fine-q2-8-csv",
     ["enumerate", "--p", "2", "--degree", "8", "--level", "fine", "--format", "csv"],
     "a2e5ba8042dc208fdabce7d0b0101274ec34a12b4508cbf445387d1b3d3e97f7"),
    ("res-q2-4-stats",
     ["enumerate", "--p", "2", "--degree", "4", "--level", "res", "--stats"],
     "40f60797bc9dee9ec72fb3ba6000cb44347ffef861e8b58a635a078d317c8e65"),
    ("unif-q3-3-csv",
     ["enumerate", "--p", "3", "--degree", "3", "--level", "unif", "--format", "csv"],
     "e9e9f635e7a3477e7c6f901256cd756a2ea7c32ae8f03a5c0df8d3582a1abcd9"),
    ("fine-q2-2-expand",
     ["enumerate", "--p", "2", "--degree", "2", "--level", "fine", "--truncate",
      "--expand"],
     "00efdfc633aeae17c945414c392ea49637e58ad008d10e7fac240f4218228fca"),
    ("unif-q2-4-reduce-expand",
     ["enumerate", "--p", "2", "--degree", "4", "--level", "unif", "--truncate",
      "--reduce", "--expand"],
     "693592dbb503c79d7efab73e9b6189945b63d2d521388dc765f364f26e3ac1a9"),
    ("unif-e2-4",
     ["enumerate", "--p", "2", "--e", "2", "--degree", "4", "--level", "unif"],
     "ba770d47c3c0cbab682e98aa2867aaf65881066f889244a5e34453b130c4a4cd"),
    ("res-f4-4",
     ["enumerate", "--p", "2", "--f", "2", "--degree", "4", "--level", "res"],
     "22ee0bf7f40890f9e9342500c2252fcf751159493822438451b2f23a380ee0aa"),
    ("unif-f9-gamma-g-3-reduce-expand",
     ["enumerate", "--p", "3", "--f", "2", "--gamma", "g", "--degree", "3", "--level",
      "unif", "--truncate", "--reduce", "--expand"],
     "28b4cf2e2ab7e9c580306a5e192a783dd2f50a92de32167e7b4c20e49abf7df8"),
    ("unif-f8-gamma-g-8-reduce",
     ["enumerate", "--p", "2", "--f", "3", "--gamma", "g", "--degree", "8", "--level",
      "unif", "--truncate", "--reduce"],
     "ff01a19893ad72c2f59ecd0f97fbd3a2178362fddfa684b4a30c1942d5ba2815"),
    ("unif-f25-gamma-g-10-reduce",
     ["enumerate", "--p", "5", "--f", "2", "--gamma", "g", "--degree", "10", "--level",
      "unif", "--truncate", "--reduce"],
     "6559599342ea4f65b9042269741727dcf56b667c292391507a26ad5a0e5b1f16"),
    # the classes-f9-9 benchmark document, digest and all
    ("unif-f9-gamma-g-9-reduce",
     ["enumerate", "--p", "3", "--f", "2", "--gamma", "g", "--degree", "9", "--level",
      "unif", "--truncate", "--reduce"],
     "77b9c0b49bcfa8aa0a30f3ef97874e2c4c663b8a37a6ba769e4a4a06b5f247ae"),
    ("unif-f625-gamma-g-5",
     ["enumerate", "--p", "5", "--f", "4", "--gamma", "g", "--degree", "5", "--level",
      "unif"],
     "bb8a8beab6e2182d2947e7b633a17ff9b4fb1312543e2e7b83070a8d878c586e"),
    ("analyze-integer",
     ["analyze", "--p", "2", "x^8+2x^7+2x^6+2x^4+2"],
     "8735b180a264f1364e1844f44feacf768e11986afd485bca7f1edddfc68adf09"),
    ("analyze-json-f4",
     ["analyze", "--p", "2", "--f", "2", "--json", "{F4_POLYNOMIAL}"],
     "6d59908f3c896104ae13822cf0a775fbe0a103b4289e40f9c0992103d2f87994"),
    ("analyze-json-q2-64-dense",
     ["analyze", "--p", "2", "--json", "{DENSE_Q2_64}"],
     "da69eb80954f8db1816ec9eb982c8d4cfc022d999809cf78c994797509d0681c"),
    ("analyze-json-q3-27-dense",
     ["analyze", "--p", "3", "--json", "{DENSE_Q3_27}"],
     "86ac4e6acad5741750cc06c2ea8d4c3275b6af3b50d78d6a562be49e4ba88058"),
    ("selftest-2-2-3",
     ["selftest", "--case", "2:2:3"],
     "cf83cbaf2810abda8ae581993e2b5bcc03895807a2af8aaa1616671a93d95911"),
]


@pytest.mark.parametrize(
    "argv, digest", [(argv, digest) for _, argv, digest in GOLDEN],
    ids=[name for name, _, _ in GOLDEN],
)
def test_cli_stdout_matches_golden_hash(argv, digest, capsys, tmp_path):
    paths = {}
    for name, document in DOCUMENTS.items():
        paths[name] = tmp_path / f"{name.strip('{}')}.json"
        paths[name].write_text(json.dumps(document))
    argv = [str(paths[arg]) if arg in paths else arg for arg in argv]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dense_degree_4096_analysis_is_fast(capsys, tmp_path):
    # the largest degree analyze accepts: every coefficient present, so each of
    # the 4096 abscissas would cost a minimum over thousands of terms
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(dense_table(2, 4096)))
    start = time.perf_counter()
    assert cli.main(["analyze", "--p", "2", "--json", str(path)]) == 0
    assert time.perf_counter() - start < 3
    out = capsys.readouterr().out
    digest = "4471c4b7f5b701c0dae572dc84fc83b61338fb019ca7f70790c8be4e0c76c3c3"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_quadratic_reference_points_leave_the_binomial_cache_alone():
    # the O(n^2) definition reads n^2/2 binomial valuations, which leave no
    # O(n^2) cache behind: every process-lifetime cache of ``binomials``
    # holds at most one entry per k <= n
    f = serialize.polynomial_from_json(make_field(2, 1, 1, 1), dense_table(2, 1024))
    caches = [obj for obj in vars(binomials).values() if hasattr(obj, "cache_info")]
    assert binomials.vp_factorial in caches and binomials.valuation_table in caches
    for cache in caches:
        cache.cache_clear()
    points = ramification_points(f)
    assert len(points) == 1024
    assert binomials.vp_factorial.cache_info().currsize > 1000
    for cache in caches:
        assert cache.cache_info().currsize <= 1024 + 1, cache
