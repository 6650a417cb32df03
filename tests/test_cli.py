import csv
import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from klein_lattice import serialize as ser
from klein_lattice.cli import COMMANDS, main
from klein_lattice.hodge import MonodromySpec, hilbert_square_extension
from klein_lattice.isometry import Isometry

from cases import (
    HODGE4,
    HODGE6,
    KAHLER4,
    SIGMA6,
    config_u3,
    forged_certificates,
    hilbert_kahler_model,
    undecided_on_hilbert_square,
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_lattice_signature_builtin(capsys):
    code, rep = run_cli(["lattice", "signature", "--name", "K3"], capsys)
    assert code == 0
    assert rep["result"]["signature"] == {"positive": 3, "zero": 0, "negative": 19}
    assert rep["completeness"] == "Certified"
    assert "seed" in rep


def test_lattice_classify_inline(capsys):
    code, rep = run_cli(
        ["lattice", "classify", "--in", '{"gram": [[2,0],[0,-4]]}'], capsys
    )
    assert code == 0 and rep["result"]["type"] == "Hyperbolic"


def test_lattice_discriminant(capsys):
    code, rep = run_cli(
        ["lattice", "discriminant", "--in", '{"gram": [[-4]]}'], capsys
    )
    assert code == 0 and rep["result"]["invariant_factors"] == [4]


def test_lattice_radical_and_saturate(capsys):
    code, rep = run_cli(
        ["lattice", "radical", "--in", '{"gram": [[0,0],[0,-2]]}'], capsys
    )
    assert code == 0 and rep["result"]["basis"] == [[1, 0]]
    code, rep = run_cli(
        [
            "lattice", "saturate", "--in", '{"gram": [[0,1],[1,0]]}',
            "--sub", '{"basis": [[2, 0]]}',
        ],
        capsys,
    )
    assert code == 0 and rep["result"]["basis"] == [[1, 0]]


def test_exit_code_1_on_bad_input(capsys):
    assert main(["lattice", "signature", "--name", "NOPE"]) == 1
    assert main(["lattice", "discriminant", "--in", '{"gram": [[0,0],[0,-2]]}']) == 1
    assert main(["lattice", "signature", "--in", '{"gram": [[0,1],[2,0]]}']) == 1


PELL_GROUP = json.dumps(
    {
        "lattice": {"gram": [[2, 0], [0, -4]]},
        "generators": [{"matrix": [[3, 4], [2, 3]]}],
        "word_bound": 8,
        "component_base": [1, 0],
    }
)


PELL_PI = '{"rays": [[2, 1], [2, -1]]}'
PELL_POS = '{"lattice": {"gram": [[2,0],[0,-4]]}, "component_base": [1,0]}'
DIAG_2_M2_M2 = '{"gram": [[2,0,0],[0,-2,0],[0,0,-2]]}'


PELL_ORBIT = [
    {"matrix": [[3, 4], [2, 3]], "word": "g0"},
    {"matrix": [[3, -4], [-2, 3]], "word": "g0^-1"},
]


def klein_d4(sigma):
    return json.dumps({"carrier": "D4", "eps": [1, 1, 1, 1, -1, -1, -1, -1], "sigma": sigma})


Z2_ON_S3 = '{"group": "Z2", "carrier": "S3", "action": "trivial"}'
S6_GENERATORS = '{"permutations": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]}'
Z4_SEQ_OUT_OF_RANGE = json.dumps({
    "sub": {"group": "Z2", "carrier": "Z2", "action": "trivial"},
    "mid": {"group": "Z2", "carrier": "Z4", "action": "trivial"},
    "quot": {"group": "Z2", "carrier": "Z2", "action": "trivial"},
    "inclusion": [0, 7],
    "projection": [0, 1, 0, 1],
})


def kaut_criterion(embedding, rays=None):
    """hk kaut-criterion for the identity on HODGE4, with KAHLER4 given the
    embedding (and the cone rays, when given)."""
    model = {**KAHLER4, "embedding": embedding}
    if rays is not None:
        model["cone"] = {"rays": rays}
    return [
        "hk", "kaut-criterion", "--phi", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
        "--hodge", json.dumps(HODGE4), "--cone", json.dumps(model),
        "--mon", '{"kind": "discriminant", "signs": [-1]}',
    ]


# KAHLER4 moved onto another lattice than HODGE4's
MOVED_KAHLER4 = json.dumps({**KAHLER4, "lattice": {"gram": [[5, 0, 0, 0], [0, 5, 0, 0],
                                                             [0, 0, 7, 0], [0, 0, 0, -3]]}})


def u_swap_stabilizer(word_bound):
    """isom stabilizer of (1, 1) under the swap of U, with the given word
    bound."""
    group = {"lattice": {"name": "U"}, "generators": [{"matrix": [[0, 1], [1, 0]]}],
             "word_bound": word_bound}
    return ["isom", "stabilizer", "--group", json.dumps(group), "--point", "1,1"]


def pell_cert(orbit=PELL_ORBIT, xi=(1, 0)):
    """The Pell certificate, at xi = (1, 0) unless another xi is given, with
    the given orbit elements."""
    group = json.loads(PELL_GROUP)
    return json.dumps({
        "positive_cone": {"lattice": group["lattice"], "component_base": [1, 0]},
        "group": group,
        "xi": list(xi),
        "word_bound": 20,
        "halfspaces": [[1, -2], [1, 2]],
        "domain": {"ambient_dim": 2, "rays": [[2, -1], [2, 1]],
                   "halfspaces": [[1, -2], [1, 2]]},
        "full_cone": False,
        "stabilization_depth": 1,
        "orbit_elements": orbit,
    })


@pytest.mark.parametrize(
    "gram, error",
    [("5", "ParseError"), ("[[1, 0], [0]]", "ParseError"), ("[]", "EmptyInput")],
)
def test_malformed_gram_is_an_input_error(gram, error, capsys):
    code = main(["lattice", "discriminant", "--in", '{"gram": %s}' % gram])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {error}: ")
    assert captured.out == ""


def test_a_file_of_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text('{"gram": [[1,0]')
    code = main(["lattice", "discriminant", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: ParseError: bad JSON in {path}: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["cone", "member", "--in", '{"gram":[[2,0],[0,-4]]}', "--base", "1,0",
             "--point=1,2,3"],
            "DimensionMismatch",
        ),
        (
            ["cone", "member", "--in", '{"gram":[[2,0],[0,-4]]}', "--base", "1,0,0",
             "--point=1,0"],
            "DimensionMismatch",
        ),
        (
            ["cone", "domain", "--group", "{}", "--base", "1,0", "--xi", "1,0",
             "--bound", "5"],
            "ParseError",
        ),
        (
            ["lattice", "saturate", "--in", '{"gram":[[2,0],[0,2]]}', "--sub", "[[1]]"],
            "ParseError",
        ),
        (["lattice", "signature", "--in", os.path.dirname(__file__)], "ParseError"),
        (
            ["cone", "domain", "--group", PELL_GROUP, "--base", "1,0", "--xi", "1,0,7"],
            "DimensionMismatch",
        ),
        (
            ["cone", "domain", "--group", PELL_GROUP,
             "--pos", '{"lattice":{"gram":[[2,0],[0,-6]]},"component_base":[1,0]}',
             "--xi", "1,0"],
            "InvalidInput",
        ),
        (
            ["cone", "domain", "--group", PELL_GROUP, "--base", "1,0", "--xi", "1,0",
             "--bound", "0"],
            "InvalidInput",
        ),
        (
            ["cone", "domain", "--group", PELL_GROUP, "--base", "1,0", "--xi", "1,0",
             "--bound=-3"],
            "InvalidInput",
        ),
        (["cone", "domain", "--group", PELL_GROUP, "--xi", "1,0"], "ParseError"),
        (
            ["cone", "verify", "--cert",
             pell_cert(PELL_ORBIT + [{"matrix": [[0, 0], [0, 0]], "word": "g0"}])],
            "InvalidInput",
        ),
        (
            ["cone", "verify", "--cert",
             pell_cert(PELL_ORBIT + [{"matrix": [[2, 0], [0, 1]], "word": "g0"}])],
            "InvalidInput",
        ),
        (["cone", "verify", "--cert", pell_cert(), "--samples=-5"], "InvalidInput"),
        (["cone", "verify", "--cert", pell_cert(), "--samples", "0"], "InvalidInput"),
        (["cone", "verify", "--cert", pell_cert(), "--disjoint-bound", "0"], "InvalidInput"),
        # refused before the file is opened; without the check it would be
        # written as at depth 0
        (["cone", "domain", "--group", PELL_GROUP, "--base", "1,0", "--xi", "1,0",
          "--sectors-csv", os.devnull, "--sectors-depth", "-1"], "InvalidInput"),
        (["h1", "real-forms", "--klein", klein_d4(40)], "InvalidInput"),
        (["h1", "real-forms", "--klein", klein_d4(-4)], "InvalidInput"),
        (["h1", "les", "--seq", Z4_SEQ_OUT_OF_RANGE], "InvalidInput"),
        (
            ["h1", "filtration", "--spec",
             '{"kind": "finite", "group": "S3", "chain": [[0, 99]], "g": "Z2"}'],
            "InvalidInput",
        ),
        (
            ["h1", "twist", "--ggroup", Z2_ON_S3, "--sub", "0,1,2,3,4,9", "--phi", "0,0"],
            "InvalidInput",
        ),
        (
            ["h1", "twist", "--ggroup", Z2_ON_S3, "--sub", "0,1,2,3,4,5", "--phi", "0,x"],
            "ParseError",
        ),
        (["h1", "compute", "--group", "Z2", "--coeff", S6_GENERATORS], "ParseError"),
        (["h1", "compute", "--group", "Z2", "--coeff", "Q9"], "ParseError"),
        (kaut_criterion([[1]]), "DimensionMismatch"),
        (kaut_criterion([[0, 0, 1, 0, 7]]), "DimensionMismatch"),
        (kaut_criterion([[0, 0, 1, 0], [0, 0, 2, 0]], rays=[[1, 0], [0, 1]]), "InvalidInput"),
        (["cone", "verify", "--cert", pell_cert(xi=[0, 1])], "NonPositiveVector"),
        (["cone", "verify", "--cert", pell_cert(xi=[1, 1])], "NonPositiveVector"),
        (["cone", "siegel", "--group", PELL_GROUP, "--base", "1,0", "--pi1", PELL_PI,
          "--pi2", PELL_PI, "--bound", "0"], "InvalidInput"),
        (["cone", "siegel", "--group", PELL_GROUP, "--base", "1,0", "--pi1", PELL_PI,
          "--pi2", '{"rays": [[2, 1], [2, -1]], "halfspaces": [[5, 5]]}'], "InvalidInput"),
        (["cone", "siegel", "--group", PELL_GROUP, "--base", "1,0", "--pi1", PELL_PI,
          "--pi2", '{"rays": [[2, 1], [2, -1]], "equalities": [[1, 0]]}'], "InvalidInput"),
        (["cone", "siegel", "--group", PELL_GROUP, "--base", "1,0", "--pi1", PELL_PI,
          "--pi2", PELL_PI, "--bound=-3"], "InvalidInput"),
        (["isom", "fix-sublattice", "--in", DIAG_2_M2_M2, "--sub", '{"basis": [[1,0,0]]}',
          "--bound", "0"], "InvalidInput"),
        (["isom", "fix-sublattice", "--in", DIAG_2_M2_M2, "--sub", '{"basis": [[1,0,0]]}',
          "--bound=-1"], "InvalidInput"),
        (u_swap_stabilizer(0), "InvalidInput"),
        (u_swap_stabilizer(-3), "InvalidInput"),
        (kaut_criterion(KAHLER4["embedding"])[:-1]
         + ['{"kind": "generators", "generators": [], "word_bound": 0}'], "InvalidInput"),
        (["lattice", "signature", "--name", "U", "--in", "not-a-file.json"], "ParseError"),
        (["cone", "domain", "--group", PELL_GROUP, "--pos", PELL_POS, "--base", "x,y",
          "--xi", "1,0"], "ParseError"),
        (["cone", "siegel", "--group", PELL_GROUP, "--pos", PELL_POS, "--base", "1,0",
          "--pi1", PELL_PI, "--pi2", PELL_PI], "ParseError"),
        (["h1", "filtration", "--spec",
          '{"kind": "split", "free_rank": -1, "torsion": [2], "quotient": "Z2",'
          ' "q_action": [[], []], "g": "Z2"}'], "InvalidInput"),
        # flags must be JSON booleans and a declared rank a JSON integer
        (["isom", "stabilizer", "--group",
          '{"lattice": {"gram": [[2,0],[0,-4]]}, "generators": [],'
          ' "full_orthogonal_plus": "false", "component_base": [1,0]}', "--point", "1,0"],
         "ParseError"),
        (kaut_criterion(KAHLER4["embedding"])[:-1]
         + ['{"kind": "discriminant", "signs": [-1], "require_orientation": "false"}'],
         "ParseError"),
        (["lattice", "signature", "--in", '{"rank": 2.0, "gram": [[2,0],[0,-4]]}'], "ParseError"),
        (["lattice", "signature", "--in", '{"rank": true, "gram": [[2]]}'], "ParseError"),
        # inputs that live on two different lattices
        (["cone", "siegel", "--group", PELL_GROUP,
          "--pos", '{"lattice": {"gram": [[1,0],[0,-1]]}, "component_base": [1,0]}',
          "--pi1", PELL_PI, "--pi2", PELL_PI], "InvalidInput"),
        (["hk", "kaut-criterion", "--phi", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
          "--hodge", json.dumps(HODGE4), "--cone", MOVED_KAHLER4,
          "--mon", '{"kind": "discriminant", "signs": [-1]}'], "InvalidInput"),
        (["hk", "torelli", "--phi", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
          "--source", json.dumps(HODGE4), "--target", json.dumps(HODGE4),
          "--ksource", MOVED_KAHLER4, "--ktarget", MOVED_KAHLER4,
          "--mon", '{"kind": "discriminant", "signs": [-1]}'], "InvalidInput"),
    ],
    ids=["point-length", "base-length", "group-without-lattice", "sublattice-not-object",
         "path-is-a-directory", "xi-length", "pos-on-another-lattice", "bound-zero",
         "bound-negative", "neither-pos-nor-base", "orbit-singular",
         "orbit-not-unimodular", "samples-negative", "samples-zero",
         "disjoint-bound-zero", "sectors-depth-negative", "sigma-out-of-range", "sigma-negative",
         "inclusion-out-of-range", "chain-out-of-range", "sub-out-of-range",
         "phi-not-an-integer", "permutation-group-past-s5", "unknown-builtin-group",
         "embedding-row-short",
         "embedding-row-long", "embedding-rows-dependent", "cert-xi-0-1-outside-c",
         "cert-xi-1-1-outside-c",
         "siegel-bound-zero", "siegel-halfspace-not-a-facet",
         "siegel-equality-not-the-cones", "siegel-bound-negative",
         "fix-sublattice-bound-zero", "fix-sublattice-bound-negative",
         "group-word-bound-zero", "group-word-bound-negative", "monodromy-word-bound-zero",
         "in-and-name", "domain-pos-and-base", "siegel-pos-and-base",
         "split-free-rank-negative", "group-flag-string", "monodromy-flag-string",
         "rank-float", "rank-boolean", "siegel-pos-on-another-lattice",
         "kaut-model-on-another-lattice", "torelli-models-on-another-lattice"],
)
def test_malformed_request_is_an_input_error(argv, error, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {error}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_an_unknown_group_name_lists_the_builtin_names(capsys):
    assert main(["h1", "compute", "--group", "Z2", "--coeff", "Q9"]) == 1
    err = capsys.readouterr().err
    assert "'Q9' is neither a built-in group nor a readable file" in err
    assert all(name in err for name in ser.BUILTIN_GROUPS)


def test_cone_member_takes_no_pos_option(capsys):
    # --base is required, so a --pos would only ever be overridden
    code = main(["cone", "member", "--in", '{"gram": [[2,0],[0,-4]]}', "--base", "1,0",
                 "--pos", PELL_POS, "--point", "1,0"])
    assert code == 1
    assert "unrecognized arguments: --pos" in capsys.readouterr().err


def test_readme_lists_every_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    line = readme.split("Subcommands: ", 1)[1].split("\n\n", 1)[0]
    listed = {group: names.split(", ") for group, names in re.findall(r"`(\S+) \{([^}]*)\}`", line)}
    assert listed == {group: list(commands) for group, commands in COMMANDS.items()}


def test_exit_code_1_on_unknown_command(capsys):
    assert main(["bogus"]) == 1
    assert main(["lattice", "bogus"]) == 1
    assert main([]) == 1


def usage_argvs():
    """Every help request, and requests that argparse refuses before any
    handler runs."""
    argvs = [["--help"], []]
    for group, commands in COMMANDS.items():
        argvs.append([group, "--help"])
        argvs.extend([group, name, "--help"] for name in commands)
    return argvs + [
        ["bogus"],
        ["lattice"],
        ["lattice", "bogus"],
        ["lattice", "saturate", "--name", "U"],
        ["lattice", "signature", "--name", "U", "--bogus"],
        ["--seed", "x", "lattice", "signature", "--name", "U"],
        ["lattice", "signature", "--name", "U", "--seed", "x"],
        ["--out", "cone", "lattice", "--help"],
    ]


# sha256 of the JSON of [argv, exit code, stdout, stderr] over usage_argvs(),
# at 80 columns; argparse words its texts slightly differently from one
# Python minor version to the next, and this is Python 3.11's
USAGE_PIN = "6651e5f3e65091684e9783e3a9024e00ab1f040493db00526966726573475fa1"


def test_help_and_usage_texts_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    runs = []
    for argv in usage_argvs():
        code = main(argv)
        captured = capsys.readouterr()
        runs.append([argv, code, captured.out, captured.err])
    assert len(runs) == 39
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == USAGE_PIN


def test_sectors_unsupported_rank(tmp_path, capsys):
    group = {
        "lattice": {"name": "K3"},
        "generators": [],
        "word_bound": 2,
    }
    # rank-22 lattice is not hyperbolic, so use a rank-4 hyperbolic one
    group = {
        "lattice": {
            "gram": [
                [2, 0, 0, 0],
                [0, -2, 0, 0],
                [0, 0, -2, 0],
                [0, 0, 0, -2],
            ]
        },
        "generators": [],
        "word_bound": 2,
        "component_base": [1, 0, 0, 0],
    }
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(group))
    code = main(
        [
            "cone", "domain", "--group", str(gpath), "--base", "1,0,0,0",
            "--xi", "1,0,0,0", "--sectors-csv", str(tmp_path / "s.csv"),
        ]
    )
    capsys.readouterr()
    assert code == 1  # UnsupportedRank is an input-contract error


def test_isom_check_and_group(capsys):
    code, rep = run_cli(
        [
            "isom", "check", "--in", '{"gram": [[2,0],[0,-4]]}',
            "--matrix", "[[3,4],[2,3]]",
        ],
        capsys,
    )
    assert code == 0 and rep["result"]["isometry"] is True
    code, rep = run_cli(
        ["isom", "definite-group", "--in", '{"gram": [[-2,0],[0,-2]]}'], capsys
    )
    assert code == 0 and rep["result"]["order"] == 8


def test_isom_fix_sublattice(capsys):
    code, rep = run_cli(
        [
            "isom", "fix-sublattice",
            "--in", '{"gram": [[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]}',
            "--sub", '{"basis": [[1,0,0,0]]}',
        ],
        capsys,
    )
    assert code == 0 and rep["result"]["kind"] == "Counterexample"
    assert "witness" in rep["result"]


@pytest.fixture()
def pell_group_file(tmp_path):
    path = tmp_path / "pell.json"
    path.write_text(
        json.dumps(
            {
                "lattice": {"gram": [[2, 0], [0, -4]]},
                "generators": [{"matrix": [[3, 4], [2, 3]]}],
                "word_bound": 14,
                "component_base": [1, 0],
            }
        )
    )
    return str(path)


def test_isom_stabilizer(pell_group_file, capsys):
    code, rep = run_cli(
        ["isom", "stabilizer", "--group", pell_group_file, "--point", "1,0"], capsys
    )
    assert code == 0
    assert len(rep["result"]["members"]) == 1
    assert rep["completeness"] == "Certified"


def test_isom_stabilizer_with_cert(pell_group_file, tmp_path, capsys):
    code, rep = run_cli(
        [
            "cone", "domain", "--group", pell_group_file, "--base", "1,0",
            "--xi", "1,0", "--bound", "14",
        ],
        capsys,
    )
    assert code == 0
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(rep["result"]["certificate"]))
    code, rep = run_cli(
        [
            "isom", "stabilizer", "--group", pell_group_file,
            "--point", "9,4", "--cert", str(cpath),
        ],
        capsys,
    )
    assert code == 0
    assert rep["completeness"] == "Certified"
    assert len(rep["result"]["members"]) == 1


def test_a_certificate_of_another_group_exits_1(pell_group_file, capsys):
    # the Pell certificate decides membership in <P>: with the dihedral
    # group <P, diag(1, -1)> the stabilizer of (1, 0) would lose diag(1, -1)
    code, rep = run_cli(
        [
            "cone", "domain", "--group", pell_group_file, "--base", "1,0",
            "--xi", "1,0", "--bound", "14",
        ],
        capsys,
    )
    assert code == 0
    cert = json.dumps(rep["result"]["certificate"])
    dihedral = json.dumps({
        "lattice": {"gram": [[2, 0], [0, -4]]},
        "generators": [{"matrix": [[3, 4], [2, 3]]}, {"matrix": [[1, 0], [0, -1]]}],
        "word_bound": 12,
        "component_base": [1, 0],
    })
    for argv in (
        ["isom", "stabilizer", "--group", dihedral, "--point", "1,0", "--cert", cert],
        ["hk", "classify-subgroups", "--gamma", dihedral, "--domain", cert],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: InvalidInput: ")
    code, rep = run_cli(["isom", "stabilizer", "--group", dihedral, "--point", "1,0"], capsys)
    assert code == 0 and len(rep["result"]["members"]) == 2


def test_an_empty_cert_exits_1(pell_group_file, capsys):
    # empty text names no certificate file; it is not an absent --cert
    argv = ["isom", "stabilizer", "--group", pell_group_file, "--point", "9,4"]
    assert main(argv + ["--cert", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ParseError: ")
    code, rep = run_cli(argv, capsys)
    assert code == 0 and rep["completeness"] == "Certified"


def test_cone_verify_writes_the_sectors_of_cone_domain(pell_group_file, tmp_path, capsys):
    domain_csv, verify_csv = tmp_path / "domain.csv", tmp_path / "verify.csv"
    code, rep = run_cli(
        [
            "cone", "domain", "--group", pell_group_file, "--base", "1,0",
            "--xi", "1,0", "--bound", "14", "--sectors-csv", str(domain_csv),
        ],
        capsys,
    )
    assert code == 0
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(rep["result"]["certificate"]))
    code, _ = run_cli(
        [
            "cone", "verify", "--cert", str(cpath), "--samples", "5",
            "--disjoint-bound", "2", "--sectors-csv", str(verify_csv),
        ],
        capsys,
    )
    assert code == 0
    rows = verify_csv.read_text().splitlines()
    assert len(rows) > 3 and rows[1].startswith("domain,")
    assert verify_csv.read_text() == domain_csv.read_text()


@pytest.mark.parametrize(
    "gram,base,rays",
    [
        ([[0, 1], [1, 0]], "1,1", [["1", "0"], ["0", "1"]]),
        ([[1, 0], [0, -1]], "1,0", [["1", "1"], ["1", "-1"]]),
        # q(x, y) = 2x^2 - 4y^2 has no rational isotropic ray
        ([[2, 0], [0, -4]], "1,0", []),
        # boundary rays are listed in rank 2 only
        ([[1, 0, 0], [0, -1, 0], [0, 0, -1]], "1,0,0", []),
    ],
)
def test_full_cone_sectors_list_the_rational_boundary_rays(gram, base, rays, tmp_path, capsys):
    # a group with no generators has the whole cone as its domain
    csv_path = tmp_path / "sectors.csv"
    group = json.dumps({"lattice": {"gram": gram}, "generators": []})
    code, rep = run_cli(
        [
            "cone", "domain", "--group", group, "--base", base, "--xi", base,
            "--sectors-csv", str(csv_path),
        ],
        capsys,
    )
    assert code == 0 and rep["result"]["certificate"]["full_cone"] is True
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    header = ["label", "kind"] + [f"x{i}" for i in range(len(gram))]
    assert rows == [header] + [["boundary", "ray", *r] for r in rays]


def test_cone_pipeline(pell_group_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    csv_path = str(tmp_path / "sectors.csv")
    code, rep = run_cli(
        [
            "cone", "domain", "--group", pell_group_file, "--base", "1,0",
            "--xi", "1,0", "--bound", "14",
            "--sectors-csv", csv_path, "--sectors-depth", "2",
        ],
        capsys,
    )
    assert code == 0
    assert sorted(rep["result"]["rays"]) == [[2, -1], [2, 1]]
    assert rep["result"]["stabilization_depth"] <= 2
    with open(cert_path, "w") as fh:
        json.dump(rep["result"]["certificate"], fh)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "kind", "x0", "x1"]
    labels = {r[0] for r in rows[1:]}
    assert "domain" in labels and any(l.startswith("g0") for l in labels)

    code, rep = run_cli(
        [
            "cone", "verify", "--cert", cert_path, "--samples", "40",
            "--seed", "9", "--disjoint-bound", "4",
        ],
        capsys,
    )
    assert code == 0
    assert rep["result"]["report"]["covering"]["status"] == "pass"
    assert rep["result"]["certificate"]["covering_evidence"]["seed"] == 9

    pi_path = str(tmp_path / "pi.json")
    with open(pi_path, "w") as fh:
        json.dump({"rays": [[2, 1], [2, -1]]}, fh)
    code, rep = run_cli(
        [
            "cone", "siegel", "--group", pell_group_file, "--base", "1,0",
            "--pi1", pi_path, "--pi2", pi_path, "--bound", "14",
        ],
        capsys,
    )
    assert code == 0 and rep["result"]["count"] == 3

    code, rep = run_cli(
        [
            "cone", "member", "--in", '{"gram": [[0,1],[1,0]]}',
            "--base", "1,1", "--point", "1,0",
        ],
        capsys,
    )
    assert code == 0 and rep["result"]["member"] is True


def test_full_cone_certificate_of_an_infinite_group_exits_2(capsys):
    # the full cone C+ is no fundamental domain for the infinite Pell group:
    # its first translate overlaps it
    group = json.loads(PELL_GROUP)
    cert = {
        "positive_cone": {"lattice": group["lattice"], "component_base": [1, 0]},
        "group": group,
        "xi": [1, 0],
        "word_bound": 0,
        "halfspaces": [],
        "domain": {"ambient_dim": 2, "rays": [], "halfspaces": [], "lines": [[0, 1], [1, 0]]},
        "full_cone": True,
        "stabilization_depth": 0,
        "orbit_elements": [],
        "rays_in_closure": True,
    }
    code = main(["cone", "verify", "--cert", json.dumps(cert), "--samples", "5"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2
    assert rep["error"]["type"] == "DisjointnessFailure"


# the commands that read a certificate, less the certificate itself
CERTIFICATE_COMMANDS = {
    "cone-verify": ["cone", "verify", "--samples", "5", "--cert"],
    "isom-stabilizer": ["isom", "stabilizer", "--group", PELL_GROUP, "--point", "3,1", "--cert"],
    "hk-classify-subgroups": ["hk", "classify-subgroups", "--gamma", PELL_GROUP, "--domain"],
}


@pytest.mark.parametrize("command", sorted(CERTIFICATE_COMMANDS))
def test_forged_certificates_exit_1(command, capsys):
    # a reader that trusted the copied facts would let these commands
    # answer, and cone verify would call the lattice mix-up a
    # CoverageFailure (exit 2) rather than an input error
    argv = CERTIFICATE_COMMANDS[command]
    assert main(argv + [pell_cert()]) == 0
    for forged in forged_certificates(json.loads(pell_cert())).values():
        capsys.readouterr()
        assert main(argv + [json.dumps(forged)]) == 1
        assert capsys.readouterr().err.startswith("error: InvalidInput: ")


def test_cone_domain_exit_2_on_nontrivial_stabilizer(tmp_path, capsys):
    group = {
        "lattice": {"gram": [[2, 0], [0, -4]]},
        "generators": [
            {"matrix": [[3, 4], [2, 3]]},
            {"matrix": [[1, 0], [0, -1]]},
        ],
        "word_bound": 10,
        "component_base": [1, 0],
    }
    path = tmp_path / "dihedral.json"
    path.write_text(json.dumps(group))
    code = main(
        ["cone", "domain", "--group", str(path), "--base", "1,0", "--xi", "1,0"]
    )
    out = capsys.readouterr().out
    assert code == 2
    rep = json.loads(out)
    assert rep["error"]["type"] == "NontrivialStabilizer"


def test_h1_compute(capsys):
    code, rep = run_cli(
        ["h1", "compute", "--group", "Z2", "--coeff", "S3", "--action", "trivial"],
        capsys,
    )
    assert code == 0 and rep["result"]["h1_size"] == 2


def test_h1_les_with_fibers(tmp_path, capsys):
    seq = {
        "sub": {"group": "Z2", "carrier": "Z2", "action": "trivial"},
        "mid": {"group": "Z2", "carrier": "Z4", "action": "trivial"},
        "quot": {"group": "Z2", "carrier": "Z2", "action": "trivial"},
        "inclusion": [0, 2],
        "projection": [0, 1, 0, 1],
    }
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq))
    code, rep = run_cli(["h1", "les", "--seq", str(path), "--fibers"], capsys)
    assert code == 0
    assert all(rep["result"]["exact_at"].values())
    assert all(f["bijection"] for f in rep["result"]["fibers"])


def test_h1_twist(capsys):
    code, rep = run_cli(
        [
            "h1", "twist",
            "--ggroup", '{"group": "Z2", "carrier": "S3", "action": "trivial"}',
            "--sub", "0,1,2,3,4,5",
            "--phi", "0,0",
        ],
        capsys,
    )
    assert code == 0
    assert rep["result"]["action"][0] == list(range(6))


def test_h1_filtration_split(capsys):
    spec = {
        "kind": "split",
        "free_rank": 1,
        "torsion": [],
        "quotient": "Z2",
        "q_action": [[[1]], [[-1]]],
        "g": "Z2",
    }
    code, rep = run_cli(["h1", "filtration", "--spec", json.dumps(spec)], capsys)
    assert code == 0 and rep["result"]["h1_size"] == 3


def test_h1_filtration_finite_not_normal_exits_1(capsys):
    spec = {
        "kind": "finite",
        "group": "S3",
        "chain": [[0, 1]],  # depends on labelling; a 2-element non-normal set
        "g": "Z2",
    }
    code = main(["h1", "filtration", "--spec", json.dumps(spec)])
    assert code == 1


def test_h1_real_forms(capsys):
    klein = {"carrier": "D4", "eps": [1, 1, 1, 1, -1, -1, -1, -1], "sigma": 4}
    code, rep = run_cli(
        ["h1", "real-forms", "--klein", json.dumps(klein), "--inner-twist"], capsys
    )
    assert code == 0
    assert rep["result"]["class_count"] == 2
    assert rep["result"]["paths_agree"] is True
    assert rep["result"]["inner_twist"]["bijection_holds"] is True


def test_hk_ns_and_projective(capsys):
    code, rep = run_cli(["hk", "ns", "--hodge", json.dumps(HODGE6)], capsys)
    assert code == 0
    assert len(rep["result"]["ns_basis"]) == 4
    assert rep["result"]["ns_type"] == "Hyperbolic"
    code, rep = run_cli(["hk", "projective", "--hodge", json.dumps(HODGE6)], capsys)
    assert code == 0 and rep["result"]["projective_type"] is True


def test_hk_hilbert(capsys):
    code, rep = run_cli(
        [
            "hk", "hilbert", "--hodge", json.dumps(HODGE6),
            "--n", "3", "--sigma", json.dumps(SIGMA6),
        ],
        capsys,
    )
    assert code == 0
    assert rep["result"]["report"]["all_pass"] is True
    assert rep["result"]["report"]["discriminant_factors"] == [4]
    assert rep["result"]["klein"]["sign"] == -1


def test_hk_torelli_and_kaut(tmp_path, capsys):
    # build the Hilbert extension data through the library, then drive the
    # CLI with serialized files
    from klein_lattice import serialize as ser
    from klein_lattice.hodge import hilbert_square_extension, neron_severi
    from klein_lattice.isometry import Isometry
    from klein_lattice.cones import cone_from_rays
    from klein_lattice.hodge import KahlerModel

    h = ser.hodge_from_json(HODGE6)
    sigma = ser.int_mat_from_json(SIGMA6)
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    ns = neron_severi(h_ext)
    rays = ((1, 0, 4, 4, 0), (0, 1, 4, 4, 0), (0, 0, 5, 4, 0), (0, 0, 4, 5, 0), (0, 0, 4, 4, 1))
    km = KahlerModel(cone_from_rays(5, rays), ns.basis, h_ext.lattice)
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps(ser.hodge_to_json(h_ext)))
    kpath = tmp_path / "k.json"
    kpath.write_text(json.dumps(ser.kahler_model_to_json(km)))
    ppath = tmp_path / "phi.json"
    ppath.write_text(json.dumps(ser.mat_to_json(klein.matrix)))
    mon = json.dumps({"kind": "discriminant", "signs": [-1]})
    code, rep = run_cli(
        [
            "hk", "torelli", "--phi", str(ppath),
            "--source", str(hpath), "--target", str(hpath),
            "--ksource", str(kpath), "--ktarget", str(kpath), "--mon", mon,
        ],
        capsys,
    )
    assert code == 0 and rep["result"]["verdict"] is True
    code, rep = run_cli(
        [
            "hk", "kaut-criterion", "--phi", str(ppath), "--hodge", str(hpath),
            "--cone", str(kpath), "--mon", mon,
        ],
        capsys,
    )
    assert code == 0
    assert rep["result"]["verdict"] == "KleinRealizable"
    assert rep["result"]["sign"] == -1
    code, rep = run_cli(kaut_criterion([[0, 0, 1, 0]]), capsys)
    assert code == 0 and rep["result"]["verdict"]


def test_hk_classify_subgroups(tmp_path, capsys):
    group = {
        "lattice": {"gram": [[2, 0], [0, -4]]},
        "generators": [
            {"matrix": [[3, 4], [2, 3]]},
            {"matrix": [[1, 0], [0, -1]]},
        ],
        "word_bound": 12,
        "component_base": [1, 0],
    }
    gpath = tmp_path / "dihedral.json"
    gpath.write_text(json.dumps(group))
    code, rep = run_cli(
        [
            "cone", "domain", "--group", str(gpath), "--base", "1,0",
            "--xi", "3,-1", "--bound", "12",
        ],
        capsys,
    )
    assert code == 0
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(rep["result"]["certificate"]))
    code, rep = run_cli(
        ["hk", "classify-subgroups", "--gamma", str(gpath), "--domain", str(cpath)],
        capsys,
    )
    assert code == 0
    assert rep["result"]["class_count"] == 3


def test_report_roundtrip_payload_identical(pell_group_file, capsys):
    args = [
        "cone", "domain", "--group", pell_group_file, "--base", "1,0",
        "--xi", "1,0", "--bound", "12", "--seed", "5",
    ]
    code1, rep1 = run_cli(args, capsys)
    code2, rep2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert json.dumps(rep1["result"], sort_keys=True) == json.dumps(
        rep2["result"], sort_keys=True
    )
    assert rep1["request"] == rep2["request"]


def test_out_file_written_atomically(tmp_path, pell_group_file, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["lattice", "signature", "--name", "U", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["signature"] == {"positive": 1, "zero": 0, "negative": 1}
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".klein-lattice-")]


def test_unwritable_output_paths_exit_1(tmp_path, pell_group_file, capsys):
    # a path under a regular file cannot be created, not even by root
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    signature = ["lattice", "signature", "--name", "U"]
    domain = ["cone", "domain", "--group", pell_group_file, "--base", "1,0", "--xi", "1,0"]
    for argv in (
        ["--out", str(blocker / "r.json")] + signature,
        ["--out", str(tmp_path)] + signature,
        domain + ["--sectors-csv", str(blocker / "s.csv")],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: cannot write ")
    assert sorted(os.listdir(tmp_path)) == ["blocker", "pell.json"]


# --- the completeness flag of every command -----------------------------------


def hilbert_operator(command, spec):
    """hk torelli or hk kaut-criterion for the Hilbert operator, config_u3's
    involution extended to U^3 + <-2>, with the given monodromy spec."""
    h, sigma = config_u3()
    h_ext, klein, _ = hilbert_square_extension(h, 2, Isometry(h.lattice, sigma))
    hodge = json.dumps(ser.hodge_to_json(h_ext))
    model = json.dumps(ser.kahler_model_to_json(hilbert_kahler_model(h_ext)))
    argv = ["hk", command, "--phi", json.dumps(ser.mat_to_json(klein.matrix))]
    if command == "torelli":
        argv += ["--source", hodge, "--target", hodge, "--ksource", model, "--ktarget", model]
    else:
        argv += ["--hodge", hodge, "--cone", model]
    return argv + ["--mon", json.dumps(ser.monodromy_spec_to_json(spec))]


DISCRIMINANT = MonodromySpec("discriminant", signs=(-1,))
U_PLUS_U = '{"gram": [[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]}'
# the reflections in (0, 1, 0) and (1, 1, 1) of diag(2, -2, -2): an infinite
# group whose words up to length 4 leave six candidates undecided
OPEN_REFLECTIONS = json.dumps({
    "lattice": {"gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]]},
    "generators": [{"matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]},
                   {"matrix": [[3, -2, -2], [2, -1, -2], [2, -2, -1]]}],
    "word_bound": 4,
})

# one request per subcommand, and a second wherever a fixture reaches the
# other flag, with the flag the report states
FLAG_CASES = {
    "lattice-signature": (["lattice", "signature", "--name", "K3"], "Certified"),
    "lattice-radical": (
        ["lattice", "radical", "--in", '{"gram": [[0,0],[0,-2]]}'], "Certified",
    ),
    "lattice-classify": (
        ["lattice", "classify", "--in", '{"gram": [[2,0],[0,-4]]}'], "Certified",
    ),
    "lattice-discriminant": (
        ["lattice", "discriminant", "--in", '{"gram": [[-4]]}'], "Certified",
    ),
    "lattice-saturate": (
        ["lattice", "saturate", "--in", '{"gram": [[0,1],[1,0]]}',
         "--sub", '{"basis": [[2, 0]]}'], "Certified",
    ),
    "isom-check": (
        ["isom", "check", "--in", '{"gram": [[2,0],[0,-4]]}', "--matrix", "[[3,4],[2,3]]"],
        "Certified",
    ),
    "isom-definite-group": (
        ["isom", "definite-group", "--in", '{"gram": [[-2,0],[0,-2]]}'], "Certified",
    ),
    "isom-fix-sublattice-corank-1": (
        ["isom", "fix-sublattice", "--in", U_PLUS_U,
         "--sub", '{"basis": [[1,0,0,0],[0,1,0,0],[0,0,1,0]]}'], "Certified",
    ),
    "isom-fix-sublattice-corank-2": (
        ["isom", "fix-sublattice", "--in", '{"gram": [[0,1,4],[1,-4,3],[4,3,-1]]}',
         "--sub", '{"basis": [[1,0,0]]}'], "BoundedSearch",
    ),
    "isom-stabilizer-pell": (
        ["isom", "stabilizer", "--group", PELL_GROUP, "--point", "1,0"], "Certified",
    ),
    "isom-stabilizer-open-reflections": (
        ["isom", "stabilizer", "--group", OPEN_REFLECTIONS, "--point", "1,0,0"],
        "BoundedSearch",
    ),
    "cone-domain": (
        ["cone", "domain", "--group", PELL_GROUP, "--base", "1,0", "--xi", "1,0"],
        "Certified",
    ),
    "cone-verify": (
        ["cone", "verify", "--cert", pell_cert(), "--samples", "5", "--seed", "3"],
        "BoundedSearch",
    ),
    "cone-siegel": (
        ["cone", "siegel", "--group", PELL_GROUP, "--base", "1,0",
         "--pi1", PELL_PI, "--pi2", PELL_PI], "BoundedSearch",
    ),
    "cone-member": (
        ["cone", "member", "--in", '{"gram": [[0,1],[1,0]]}', "--base", "1,1",
         "--point", "1,0"], "Certified",
    ),
    "h1-compute": (["h1", "compute", "--group", "Z2", "--coeff", "S3"], "Certified"),
    "h1-twist": (
        ["h1", "twist", "--ggroup", Z2_ON_S3, "--sub", "0,1,2,3,4,5", "--phi", "0,0"],
        "Certified",
    ),
    "h1-les": (
        ["h1", "les", "--fibers", "--seq", json.dumps({
            "sub": {"group": "Z2", "carrier": "Z2", "action": "trivial"},
            "mid": {"group": "Z2", "carrier": "Z4", "action": "trivial"},
            "quot": {"group": "Z2", "carrier": "Z2", "action": "trivial"},
            "inclusion": [0, 2],
            "projection": [0, 1, 0, 1],
        })], "Certified",
    ),
    "h1-filtration": (
        ["h1", "filtration", "--spec", json.dumps({
            "kind": "split", "free_rank": 1, "torsion": [], "quotient": "Z2",
            "q_action": [[[1]], [[-1]]], "g": "Z2",
        })], "Certified",
    ),
    "h1-filtration-finite": (
        ["h1", "filtration", "--spec", json.dumps({
            "kind": "finite", "group": "S3", "chain": [[0, 3, 4]], "g": "Z2",
        })], "Certified",
    ),
    "h1-real-forms": (
        ["h1", "real-forms", "--klein", klein_d4(4), "--inner-twist"], "Certified",
    ),
    "hk-ns": (["hk", "ns", "--hodge", json.dumps(HODGE6)], "Certified"),
    "hk-projective": (["hk", "projective", "--hodge", json.dumps(HODGE6)], "Certified"),
    "hk-hilbert": (
        ["hk", "hilbert", "--hodge", json.dumps(HODGE6), "--n", "3",
         "--sigma", json.dumps(SIGMA6)], "Certified",
    ),
    "hk-torelli-discriminant": (hilbert_operator("torelli", DISCRIMINANT), "Certified"),
    "hk-torelli-undecided": (
        hilbert_operator("torelli", undecided_on_hilbert_square()), "BoundedSearch",
    ),
    "hk-kaut-criterion-discriminant": (
        hilbert_operator("kaut-criterion", DISCRIMINANT), "Certified",
    ),
    "hk-kaut-criterion-undecided": (
        hilbert_operator("kaut-criterion", undecided_on_hilbert_square()),
        "BoundedSearch",
    ),
    "hk-classify-subgroups": (
        ["hk", "classify-subgroups", "--gamma", PELL_GROUP, "--domain", pell_cert()],
        "BoundedSearch",
    ),
}


# the sha256 of each report of FLAG_CASES, by report_digest
FLAG_PINS = {
    "cone-domain": (
        "b121c0c2e691e17d7562dc100a1c70c6f7ab2e9f7da727d4aaf824a43a10ebaf"
    ),
    "cone-member": (
        "ba8218f315ce14e8b311505168a763133d9ce1becfbf24c787feb9750cd771d3"
    ),
    "cone-siegel": (
        "806ecd9258bebf34dd9ff81d8b324a152ad302d4ba62b32b00f3bde18cd49456"
    ),
    "cone-verify": (
        "ef2aff1823bea03fc8bb2e80e3c0e63f2f2d42b7a78038c6ba0758395e155029"
    ),
    "h1-compute": (
        "472ec618e4d8770157c0e1e184c65b4296415689272b39680d30dad795280864"
    ),
    "h1-filtration": (
        "cf4d9ea64e7978fdd2a94d5fba527fffa1140a2dfb5afe889378bd764195ad70"
    ),
    "h1-filtration-finite": (
        "fc6f07d09658a981325b34f0f980de318937b905524602bbb0734e4c968c8afb"
    ),
    "h1-les": (
        "4756d365d2bb40bdbce5e4fe757391ef2a0cfbacec410f39df056e4bf00ec4a0"
    ),
    "h1-real-forms": (
        "997206a1d2eb85f5f7412aaf11289ab1a3d84968b8acf6e23bcf773a1ba9be35"
    ),
    "h1-twist": (
        "c7c1259ce7f7cfd2ac78cdec8eeec8429503445ac572f8270427ea16669e17fd"
    ),
    "hk-classify-subgroups": (
        "d1615b35dc7b0aa6a9fbbcfb3c540f2ddeca0594e844dcf44b0de82c6af07a9d"
    ),
    "hk-hilbert": (
        "3115b316aedeb6d15c4a65b3aba6b0ca1165c7bdafc04696e6aea09522700c1c"
    ),
    "hk-kaut-criterion-discriminant": (
        "14383cc17d897b89dc11721eb0a123f0a25c009cac0f7bdce2eccdaa414f4294"
    ),
    "hk-kaut-criterion-undecided": (
        "ace87fdb2da28948ae51fb3bbd6ea9874c6c275524919ca8b08252441ff3ffed"
    ),
    "hk-ns": (
        "af20811fc762d0db8439f9a02c2a4a86beabd8fac37d9866e7ae6d13e9f0d799"
    ),
    "hk-projective": (
        "46cd9f90f3373006cb24c84ae9e5254c62b3387954d5deb502095ff9672fca47"
    ),
    "hk-torelli-discriminant": (
        "2213ca1b9681eb931d49073d1eca18aef50f59a4c490821e3c6f9db1ddf46b7b"
    ),
    "hk-torelli-undecided": (
        "06fd9f703da0c0617246d327567230ff9395bded6ebe6fcb8320536766c1eb89"
    ),
    "isom-check": (
        "8bb5f6329477561d46d94c26b95c9658ece273701d617f13dea18150b9c2eff7"
    ),
    "isom-definite-group": (
        "658822c8c5f50e7f23c12193855193fa45a7ac3acf56ce40bc18ce8a7ac5c81f"
    ),
    "isom-fix-sublattice-corank-1": (
        "6fe964612bf1aa594089bcd5058c4bc566ce4ab7ac8546af04f0d52792d96bd0"
    ),
    "isom-fix-sublattice-corank-2": (
        "ad6b955e48ec232e9237d6ebbe9a7f78a5e7d1e296722f20d8084d36dd9065d9"
    ),
    "isom-stabilizer-open-reflections": (
        "955eb196dc516efc71391bf385205ec70f686dd79890ccc983821efa3a0b8214"
    ),
    "isom-stabilizer-pell": (
        "046d7e17fcbbee94e4fc1aa9059f29e9ac6431770e67474034382d58f7476741"
    ),
    "lattice-classify": (
        "f7f8fb0798058109243d34c7647f80f3cea79a3362d507dd36e5d7aacdaa8e5b"
    ),
    "lattice-discriminant": (
        "db60e5f9964b250de717dc2bb62e27688014a0bf4242e88b523c7f749a7bc9d2"
    ),
    "lattice-radical": (
        "dfd4b114236dc2d65f9bfb03fb66e279a2f1497d5be42ad39c57cf41b273d037"
    ),
    "lattice-saturate": (
        "22b83feae8e10f16471b3cc9154f00738a7c119d015683408841a324288b063d"
    ),
    "lattice-signature": (
        "2620461d8a71b40d17dab0bfa6eba1ce64d73a03a43dd80c6f7ab71e04eb89cd"
    ),
}


def report_digest(report):
    """sha256 of a report's JSON with sorted keys, less its elapsed_ms."""
    kept = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def test_flag_table_covers_every_command_and_both_flags_where_bounded():
    requested = {}
    for argv, flag in FLAG_CASES.values():
        requested.setdefault((argv[0], argv[1]), set()).add(flag)
    assert set(requested) == {(g, name) for g, names in COMMANDS.items() for name in names}
    both = {command for command, flags in requested.items() if len(flags) == 2}
    assert both == {("isom", "fix-sublattice"), ("isom", "stabilizer"),
                    ("hk", "torelli"), ("hk", "kaut-criterion")}


@pytest.mark.parametrize("case", sorted(FLAG_CASES))
def test_every_command_states_its_completeness(case, capsys):
    argv, flag = FLAG_CASES[case]
    code, rep = run_cli(argv, capsys)
    assert code == 0
    assert rep["completeness"] == flag
    assert report_digest(rep) == FLAG_PINS[case]
