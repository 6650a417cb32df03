"""Batch command-line front end.

One request per process; reports are JSON with the request echoed, a result
payload, its routine's completeness flag, a seed (mandatory even when unused)
and timing.  Exit codes: 0 success, 1 input error, 2 verification failure.

Each command is one entry of COMMANDS: its handler and its options.  An
option is a flag, its argparse keywords and a reader that turns the option's
text into a library value (None keeps the text).  main() echoes the text,
runs the readers in table order and passes the values to the handler.
Options that depend on each other (--in/--name, --pos/--base, a lattice
command's --sub) are read by the handler.

Handlers return library values as they are: main() writes every report
with one encoder, tuples as arrays and rationals as integers or "p/q".

A request compiles what it imports, so the readers of numbers, matrices
and lattices come from codec, and serialize is imported only where a
composite document is read or written.
"""

import argparse
import json
import os
import sys
import time

from . import codec
from .errors import (
    InvalidInput,
    KleinLatticeError,
    ParseError,
    Undecidable,
    UnsupportedRank,
    VerificationFailure,
)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from None


def _maybe_inline_json(text):
    """Accept a file path or an inline JSON literal."""
    stripped = text.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad inline JSON: {exc}") from None
    return _load_json(text)


def _parse_vector(text):
    return tuple(codec.rat_from_json(part.strip()) for part in text.split(","))


def _parse_ints(text):
    return tuple(codec.int_from_json(part.strip()) for part in text.split(","))


def _lattice_arg(args):
    if args.name and args.infile:
        raise ParseError("give --in or --name, not both")
    if args.name:
        return codec.lattice_from_json(args.name)
    if args.infile:
        return codec.lattice_from_json(_maybe_inline_json(args.infile))
    raise ParseError("need --in or --name")


def _without(report, *keys):
    """A library report less the given keys: values that are no JSON, or
    that the CLI does not report."""
    return {k: v for k, v in report.items() if k not in keys}


# --- lattice subcommands -----------------------------------------------------


def cmd_lattice_signature(args):
    from .lattice import signature

    s = signature(_lattice_arg(args))
    return {
        "signature": {
            "positive": s.positive,
            "zero": s.zero,
            "negative": s.negative,
        }
    }, "Certified"


def cmd_lattice_radical(args):
    from .lattice import radical

    return {"basis": radical(_lattice_arg(args)).basis}, "Certified"


def cmd_lattice_classify(args):
    from .lattice import classify_type

    return {"type": classify_type(_lattice_arg(args)).value}, "Certified"


def cmd_lattice_discriminant(args):
    from .lattice import discriminant_group

    dg = discriminant_group(_lattice_arg(args))
    return {
        "invariant_factors": dg.invariant_factors,
        "order": dg.order,
        "lift_matrix": dg.lift_matrix,
    }, "Certified"


def cmd_lattice_saturate(args):
    from .lattice import saturation

    lat = _lattice_arg(args)
    sub = codec.sublattice_from_json(lat, _maybe_inline_json(args.sub))
    return {"basis": saturation(lat, sub).basis}, "Certified"


# --- isom subcommands -----------------------------------------------------------


def cmd_isom_check(args):
    from .isometry import is_isometry

    return {"isometry": is_isometry(_lattice_arg(args), args.matrix)}, "Certified"


def cmd_isom_definite_group(args):
    from .isometry import isometry_group_definite

    group = isometry_group_definite(_lattice_arg(args))
    return {"order": len(group), "elements": [g.matrix for g in group]}, "Certified"


def cmd_isom_fix_sublattice(args):
    from .isometry import fixes_pointwise_implies_identity

    lat = _lattice_arg(args)
    sub = codec.sublattice_from_json(lat, _maybe_inline_json(args.sub))
    out = fixes_pointwise_implies_identity(lat, sub, search_bound=args.bound)
    payload = {"kind": out.kind}
    if out.witness is not None:
        payload["witness"] = out.witness
    return payload, out.completeness


def cmd_isom_stabilizer(args):
    from .isometry import stabilizer

    tester = None
    if args.cert is not None:
        from .cones import make_membership_tester

        args.cert.check_group(args.group)
        tester = make_membership_tester(args.cert)
    st = stabilizer(args.group, args.point, tester=tester)
    return {
        "members": [m.matrix for m in st.members],
        "unresolved": st.unresolved,
        "completeness": st.completeness,
    }, st.completeness


# --- cone subcommands ---------------------------------------------------------------


def _positive_cone_from_args(args):
    from .cones import PositiveCone

    if args.pos is not None and args.base is not None:
        raise ParseError("give --pos or --base, not both")
    if args.pos is not None:
        from .serialize import positive_cone_from_json

        return positive_cone_from_json(_maybe_inline_json(args.pos))
    if args.base is None:
        raise ParseError("need --pos or --base")
    return PositiveCone(args.group.lattice, _parse_vector(args.base))


def cmd_cone_domain(args):
    from . import serialize as ser
    from .cones import dirichlet_domain

    pos = _positive_cone_from_args(args)
    cert = dirichlet_domain(args.group, pos, args.xi, word_bound=args.bound)
    if args.sectors_csv:
        emit_sectors(cert, args.sectors_csv, depth=args.sectors_depth)
    return {
        "certificate": ser.certificate_to_json(cert),
        "stabilization_depth": cert.stabilization_depth,
        "halfspaces": cert.halfspaces,
        "rays": cert.domain.rays,
    }, "Certified"


def cmd_cone_verify(args):
    from . import serialize as ser
    from .cones import verify_fundamental_domain

    report, updated = verify_fundamental_domain(
        args.cert,
        samples=args.samples,
        seed=args.seed,
        disjoint_word_len=args.disjoint_bound,
    )
    if args.sectors_csv:
        emit_sectors(updated, args.sectors_csv, depth=args.sectors_depth)
    return {
        "report": _without(report, "completeness"),
        "certificate": ser.certificate_to_json(updated),
    }, report["completeness"]


def cmd_cone_siegel(args):
    from . import serialize as ser
    from .cones import siegel_intersections

    pos = _positive_cone_from_args(args)
    cones, report = siegel_intersections(
        pos, args.pi1, args.pi2, args.group, word_bound=args.bound
    )
    return {
        "count": report["count"],
        "stabilized_at_depth": report["stabilized_at_depth"],
        "intersections": [ser.cone_to_json(c) for c in cones],
    }, report["completeness"]


def cmd_cone_member(args):
    from .cones import PositiveCone, rational_closure_member

    pos = PositiveCone(_lattice_arg(args), _parse_vector(args.base))
    return {"member": rational_closure_member(pos, args.point)}, "Certified"


def emit_sectors(cert, out_path, depth=3):
    """CSV of boundary rays of the domain plus labelled translates.

    Supported for ambient rank 2 or 3 only; no rendering is done here, the
    file is meant for external plotting.  A negative depth is refused.
    """
    import csv

    from .cones import transform_cone

    if depth < 0:
        raise InvalidInput("sector depth must be at least 0")
    n = cert.positive_cone.dim
    if n not in (2, 3):
        raise UnsupportedRank("sector emission needs rank 2 or 3")
    rows = []
    header = ["label", "kind"] + [f"x{i}" for i in range(n)]
    if cert.full_cone:
        for ray in _rational_isotropic_rays(cert.positive_cone):
            rows.append(["boundary", "ray"] + [str(c) for c in ray])
    else:
        for ray in cert.domain.rays:
            rows.append(["domain", "ray"] + [str(c) for c in ray])
        for layer in cert.group.layers(depth)[1:]:
            for el in layer:
                moved = transform_cone(cert.domain, el.matrix)
                for ray in moved.rays:
                    rows.append([el.word, "ray"] + [str(c) for c in ray])
    try:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ParseError(f"cannot write {out_path}: {exc.strerror}") from None


def _rational_isotropic_rays(pos):
    """Primitive isotropic rays of a rank-2 positive cone, when rational."""
    from math import isqrt

    from . import intlinalg as la

    if pos.dim != 2:
        return []
    lat = pos.lattice
    a, b, c = lat.gram[0][0], lat.gram[0][1], lat.gram[1][1]
    rays = []
    if a == 0:
        rays.extend([(1, 0), (-1, 0), (-c, 2 * b), (c, -2 * b)])
    else:
        # a hyperbolic rank-2 form has ac - b^2 < 0, so disc > 0
        disc = b * b - a * c
        s = isqrt(disc)
        if s * s != disc:
            return []
        for root_num in (-b + s, -b - s):
            rays.extend([(root_num, a), (-root_num, -a)])
    # nonzero, isotropic and pairwise distinct up to sign; <base, v> != 0 on
    # such a v, so exactly one ray of each +- pair is kept
    vs = (la.primitive_vector(ray) for ray in rays)
    return [v for v in vs if la.dot(pos.base_covector, v) > 0]


# --- h1 subcommands ----------------------------------------------------------------------


def _group_spec(text):
    """A built-in name, or an inline/file JSON group description.  Text
    that is neither JSON, a built-in name nor an existing path is a
    ParseError that lists the built-in names."""
    from .serialize import BUILTIN_GROUPS

    if text in BUILTIN_GROUPS:
        return text
    if not text.strip().startswith(("[", "{")) and not os.path.exists(text):
        raise ParseError(
            f"{text!r} is neither a built-in group nor a readable file; "
            f"built-in groups: {', '.join(BUILTIN_GROUPS)}"
        )
    return _maybe_inline_json(text)


def cmd_h1_compute(args):
    from . import serialize as ser
    from .cohomology import h1_finite

    obj = {
        "group": _group_spec(args.group),
        "carrier": _group_spec(args.coeff),
        "action": "trivial" if args.action == "trivial" else _maybe_inline_json(args.action),
    }
    gg = ser.ggroup_from_json(obj)
    h1 = h1_finite(gg)
    return {
        "h1_size": h1.size,
        "representatives": h1.representatives,
        "cocycle_count": len(h1.cocycles),
    }, "Certified"


def cmd_h1_twist(args):
    from .cohomology import twist_subgroup

    twisted, embed = twist_subgroup(args.ggroup, args.sub, args.phi)
    return {"carrier_elements": embed, "action": twisted.action}, "Certified"


def cmd_h1_les(args):
    from .cohomology import les_of_pointed_sets, twist_fiber_check

    ses = args.seq
    rep = les_of_pointed_sets(ses)
    payload = {
        "exact_at": rep.exact_at,
        "h1_sizes": {
            "sub": rep.h1_sub.size,
            "mid": rep.h1_mid.size,
            "quot": rep.h1_quot.size,
        },
        "invariant_sizes": {
            "sub": len(rep.h0_sub),
            "mid": len(rep.h0_mid),
            "quot": len(rep.h0_quot),
        },
    }
    if args.fibers:
        fibers = [twist_fiber_check(ses, phi) for phi in rep.h1_mid.representatives]
        payload["fibers"] = fibers
        if not all(f["bijection"] for f in fibers):
            raise Undecidable("fiber-orbit bijection failed")
    return payload, "Certified"


def cmd_h1_filtration(args):
    from .cohomology import filtration_driver_finite, filtration_driver_split

    kind, *spec = args.spec
    driver = filtration_driver_finite if kind == "finite" else filtration_driver_split
    return _without(driver(*spec), "h1", "representatives"), "Certified"


def cmd_h1_real_forms(args):
    from .cohomology import cyclic, inner_twist_bijection, real_structure_classifier

    kg = args.klein
    out = real_structure_classifier(kg)
    payload = _without(out, "h1_mapped_classes")
    payload["class_count"] = len(out["direct_classes"])
    if args.inner_twist:
        rep = inner_twist_bijection(cyclic(2), kg.carrier, range(kg.carrier.order), kg.sigma)
        payload["inner_twist"] = _without(rep, "pairs", "sigma_in_subgroup")
    if not out["paths_agree"]:
        raise Undecidable("classification paths disagree")
    return payload, "Certified"


# --- hk subcommands ---------------------------------------------------------------------------


def cmd_hk_ns(args):
    from .hodge import neron_severi, ns_plus_t_index, transcendental
    from .lattice import classify_type

    h = args.hodge
    ns = neron_severi(h)
    t = transcendental(h)
    return {
        "ns_basis": ns.basis,
        "transcendental_basis": t.basis,
        "ns_plus_t_index": ns_plus_t_index(h),
        "ns_type": classify_type(ns.as_lattice()).value,
    }, "Certified"


def cmd_hk_projective(args):
    from .hodge import is_projective_type

    return {"projective_type": is_projective_type(args.hodge)}, "Certified"


def cmd_hk_torelli(args):
    from .hodge import torelli_anti_check

    out = torelli_anti_check(
        args.phi, args.source, args.target, args.ksource, args.ktarget, args.mon
    )
    return _without(out, "completeness"), out["completeness"]


def cmd_hk_hilbert(args):
    from . import serialize as ser
    from .hodge import hilbert_square_extension
    from .isometry import Isometry

    h = args.hodge
    h_ext, klein, report = hilbert_square_extension(
        h, args.n, Isometry(h.lattice, args.sigma)
    )
    payload = {
        "lattice": codec.lattice_to_json(h_ext.lattice),
        "klein": ser.klein_to_json(klein),
        "report": report,
    }
    if not report["all_pass"]:
        raise Undecidable("hilbert extension checks failed")
    return payload, "Certified"


def cmd_hk_kaut_criterion(args):
    from .hodge import kaut_star_criterion

    v = kaut_star_criterion(args.phi, args.hodge, args.cone, args.mon)
    payload = {"verdict": v.kind}
    if v.kind == "KleinRealizable":
        payload["sign"] = v.sign
    if v.reason:
        payload["reason"] = v.reason
    return payload, v.completeness


def cmd_hk_classify_subgroups(args):
    from .hodge import classify_finite_subgroups_on_cone

    classes, report = classify_finite_subgroups_on_cone(args.gamma, args.domain)
    return {"classes": classes, **_without(report, "word_bound")}, report["completeness"]


# --- command table -------------------------------------------------------------------------


def _opt(flag, reader=None, **kwargs):
    """An option: its flag, its argparse keywords and the reader of its text."""
    return flag, kwargs, reader


def _doc(flag, name, required=True, **kwargs):
    """An option holding a JSON document, inline or in a file, that the
    serialize reader `name` turns into a library value; serialize is
    imported only when the option is read.  Required unless told otherwise.
    Empty text names no file: a ParseError."""

    def read(text):
        from . import serialize

        return getattr(serialize, name)(_maybe_inline_json(text))

    return _opt(flag, read, required=required, **kwargs)


def _matrix(flag):
    """A required option holding an integer matrix, inline or in a file."""
    return _opt(
        flag, lambda text: codec.int_mat_from_json(_maybe_inline_json(text)), required=True
    )


LATTICE = (
    _opt("--in", dest="infile", help="lattice JSON file or inline JSON"),
    _opt("--name", help="built-in lattice name (U, E8(-1), K3, ...)"),
)
SECTORS = (_opt("--sectors-csv"), _opt("--sectors-depth", type=int, default=3))
GROUP = _doc("--group", "generated_group_from_json")
HODGE = _doc("--hodge", "hodge_from_json")
PHI = _matrix("--phi")
MON = _doc("--mon", "monodromy_spec_from_json")

COMMANDS = {
    "lattice": {
        "signature": (cmd_lattice_signature, LATTICE),
        "radical": (cmd_lattice_radical, LATTICE),
        "classify": (cmd_lattice_classify, LATTICE),
        "discriminant": (cmd_lattice_discriminant, LATTICE),
        "saturate": (
            cmd_lattice_saturate,
            LATTICE + (_opt("--sub", required=True, help="sublattice JSON"),),
        ),
    },
    "isom": {
        "check": (cmd_isom_check, LATTICE + (_matrix("--matrix"),)),
        "definite-group": (cmd_isom_definite_group, LATTICE),
        "fix-sublattice": (
            cmd_isom_fix_sublattice,
            LATTICE + (_opt("--sub", required=True), _opt("--bound", type=int, default=1)),
        ),
        "stabilizer": (cmd_isom_stabilizer, (
            GROUP,
            _opt("--point", _parse_vector, required=True),
            _doc("--cert", "certificate_from_json", required=False,
                 help="domain certificate enabling reduction-based membership"),
        )),
    },
    "cone": {
        "domain": (cmd_cone_domain, (
            GROUP,
            _opt("--base", help="component base vector, e.g. '1,0'"),
            _opt("--pos", help="positive cone JSON (alternative to --base)"),
            _opt("--xi", _parse_vector, required=True),
            _opt("--bound", type=int, default=12),
        ) + SECTORS),
        "verify": (cmd_cone_verify, (
            _doc("--cert", "certificate_from_json"),
            _opt("--samples", type=int, default=200),
            _opt("--disjoint-bound", type=int, default=6),
        ) + SECTORS),
        "siegel": (cmd_cone_siegel, (
            GROUP,
            _opt("--base"),
            _opt("--pos"),
            _doc("--pi1", "cone_from_json"),
            _doc("--pi2", "cone_from_json"),
            _opt("--bound", type=int, default=12),
        )),
        "member": (cmd_cone_member, LATTICE + (
            _opt("--base", required=True),
            _opt("--point", _parse_vector, required=True),
        )),
    },
    "h1": {
        "compute": (cmd_h1_compute, (
            _opt("--group", required=True, help="acting group name, e.g. Z2"),
            _opt("--coeff", required=True, help="coefficient group name"),
            _opt("--action", default="trivial"),
        )),
        "twist": (cmd_h1_twist, (
            _doc("--ggroup", "ggroup_from_json"),
            _opt("--sub", _parse_ints, required=True, help="comma-separated carrier indices"),
            _opt("--phi", _parse_ints, required=True, help="comma-separated cocycle values"),
        )),
        "les": (cmd_h1_les, (
            _doc("--seq", "exact_sequence_from_json"),
            _opt("--fibers", action="store_true"),
        )),
        "filtration": (cmd_h1_filtration, (_doc("--spec", "filtration_spec_from_json"),)),
        "real-forms": (cmd_h1_real_forms, (
            _doc("--klein", "klein_group_from_json"),
            _opt("--inner-twist", action="store_true"),
        )),
    },
    "hk": {
        "ns": (cmd_hk_ns, (HODGE,)),
        "projective": (cmd_hk_projective, (HODGE,)),
        "torelli": (cmd_hk_torelli, (
            PHI,
            _doc("--source", "hodge_from_json"),
            _doc("--target", "hodge_from_json"),
            _doc("--ksource", "kahler_model_from_json"),
            _doc("--ktarget", "kahler_model_from_json"),
            MON,
        )),
        "hilbert": (cmd_hk_hilbert, (
            HODGE,
            _opt("--n", type=int, required=True),
            _matrix("--sigma"),
        )),
        "kaut-criterion": (cmd_hk_kaut_criterion, (
            PHI, HODGE, _doc("--cone", "kahler_model_from_json"), MON,
        )),
        "classify-subgroups": (cmd_hk_classify_subgroups, (
            _doc("--gamma", "generated_group_from_json"),
            _doc("--domain", "certificate_from_json"),
        )),
    },
}


def build_parser(argv):
    """The parser of every command group, with the subcommands (and their
    options) of only the groups named in argv: a request builds its own
    group's parsers, and a group name given as an option value adds one
    more group but changes no parse."""
    parser = argparse.ArgumentParser(
        prog="klein-lattice",
        description="Exact lattice, cone and cohomology computations for "
        "Klein actions on hyperkahler-type Hodge lattices.",
    )
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--seed", type=int, default=0, help="seed echoed in reports")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    groups = parser.add_subparsers(dest="command")
    named = set(argv)
    for group, commands in COMMANDS.items():
        group_parser = groups.add_parser(group)
        if group not in named:
            continue
        names = group_parser.add_subparsers(dest="subcommand")
        for name, (_, options) in commands.items():
            p = names.add_parser(name, parents=[common])
            for flag, kwargs, _ in options:
                p.add_argument(flag, **kwargs)
    return parser


def _write_output(text, out):
    if out == "-":
        sys.stdout.write(text + "\n")
        return
    import tempfile

    d = os.path.dirname(os.path.abspath(out)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".klein-lattice-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, out)
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc.strerror}") from None
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # verification failures here, so unknown commands/flags map to 1
        return 0 if exc.code == 0 else 1
    if getattr(args, "subcommand", None) is None:
        parser.print_help()
        return 1
    handler, options = COMMANDS[args.command][args.subcommand]
    request = {k: v for k, v in vars(args).items() if k != "out" and v is not None}
    start = time.monotonic()
    try:
        try:
            for flag, kwargs, reader in options:
                dest = kwargs.get("dest", flag[2:].replace("-", "_"))
                text = getattr(args, dest)
                if reader and text is not None:
                    setattr(args, dest, reader(text))
            result, completeness = handler(args)
            report, code = {"result": result, "completeness": completeness}, 0
        except VerificationFailure as exc:
            report, code = {"error": {"type": type(exc).__name__, "message": str(exc)}}, 2
        report.update(
            request=request, seed=args.seed, elapsed_ms=int((time.monotonic() - start) * 1000)
        )
        text = json.dumps(report, indent=2, sort_keys=True, default=codec.rat_to_json)
        _write_output(text, args.out)
    except KleinLatticeError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
