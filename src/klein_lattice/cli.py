"""Batch command-line front end.

One request per process; reports are JSON with the request echoed, a result
payload, completeness flags, a seed (mandatory even when unused) and timing.
Exit codes: 0 success, 1 input error, 2 verification failure.
"""

import argparse
import json
import os
import sys
import time

from . import serialize as ser
from .errors import (
    CoverageFailure,
    DisjointnessFailure,
    KleinLatticeError,
    NonStabilizing,
    NontrivialStabilizer,
    ParseError,
    ReductionFailure,
    SearchExhausted,
    Undecidable,
    UnsupportedRank,
)

VERIFICATION_ERRORS = (
    CoverageFailure,
    DisjointnessFailure,
    NonStabilizing,
    NontrivialStabilizer,
    ReductionFailure,
    SearchExhausted,
    Undecidable,
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
    return tuple(ser.rat_from_json(part.strip()) for part in text.split(","))


def _parse_ints(text):
    return tuple(ser.int_from_json(part.strip()) for part in text.split(","))


def _lattice_arg(args):
    if getattr(args, "name", None):
        return ser.lattice_from_json(args.name)
    if getattr(args, "infile", None):
        return ser.lattice_from_json(_maybe_inline_json(args.infile))
    raise ParseError("need --in or --name")


# --- lattice subcommands -----------------------------------------------------


def cmd_lattice_signature(args):
    from .lattice import signature

    lat = _lattice_arg(args)
    s = signature(lat)
    return {
        "signature": {
            "positive": s.positive,
            "zero": s.zero,
            "negative": s.negative,
        }
    }, "Certified"


def cmd_lattice_radical(args):
    from .lattice import radical

    lat = _lattice_arg(args)
    return {"basis": ser.mat_to_json(radical(lat).basis)}, "Certified"


def cmd_lattice_classify(args):
    from .lattice import classify_type

    lat = _lattice_arg(args)
    return {"type": classify_type(lat).value}, "Certified"


def cmd_lattice_discriminant(args):
    from .lattice import discriminant_group

    lat = _lattice_arg(args)
    dg = discriminant_group(lat)
    return {
        "invariant_factors": list(dg.invariant_factors),
        "order": dg.order,
        "lift_matrix": ser.mat_to_json(dg.lift_matrix) if dg.lift_matrix else [],
    }, "Certified"


def cmd_lattice_saturate(args):
    from .lattice import saturation

    lat = _lattice_arg(args)
    sub = ser.sublattice_from_json(lat, _maybe_inline_json(args.sub))
    sat = saturation(lat, sub)
    return {"basis": ser.mat_to_json(sat.basis)}, "Certified"


# --- isom subcommands -----------------------------------------------------------


def cmd_isom_check(args):
    from .isometry import is_isometry

    lat = _lattice_arg(args)
    m = ser.int_mat_from_json(_maybe_inline_json(args.matrix))
    return {"isometry": bool(is_isometry(lat, m))}, "Certified"


def cmd_isom_definite_group(args):
    from .isometry import isometry_group_definite

    lat = _lattice_arg(args)
    group = isometry_group_definite(lat)
    return {
        "order": len(group),
        "elements": [ser.mat_to_json(g.matrix) for g in group],
    }, "Certified"


def cmd_isom_fix_sublattice(args):
    from .isometry import fixes_pointwise_implies_identity

    lat = _lattice_arg(args)
    sub = ser.sublattice_from_json(lat, _maybe_inline_json(args.sub))
    out = fixes_pointwise_implies_identity(lat, sub, search_bound=args.bound)
    payload = {"kind": out.kind}
    if out.witness is not None:
        payload["witness"] = ser.mat_to_json(out.witness)
    completeness = "Certified" if out.kind != "Undecided" else "BoundedSearch"
    return payload, completeness


def cmd_isom_stabilizer(args):
    from .isometry import stabilizer

    gamma = ser.generated_group_from_json(_maybe_inline_json(args.group))
    x = _parse_vector(args.point)
    tester = None
    if getattr(args, "cert", None):
        from .cones import make_membership_tester

        cert = ser.certificate_from_json(_maybe_inline_json(args.cert))
        tester = make_membership_tester(cert)
    st = stabilizer(gamma, x, tester=tester)
    return {
        "members": [ser.mat_to_json(m.matrix) for m in st.members],
        "unresolved": [ser.mat_to_json(m) for m in st.unresolved],
        "completeness": st.completeness,
    }, st.completeness


# --- cone subcommands ---------------------------------------------------------------


def _positive_cone_from_args(args, gamma=None):
    from .cones import PositiveCone

    if args.pos is not None:
        return ser.positive_cone_from_json(_maybe_inline_json(args.pos))
    if args.base is None:
        raise ParseError("need --pos or --base")
    lat = gamma.lattice if gamma else _lattice_arg(args)
    base = _parse_vector(args.base)
    return PositiveCone(lat, base)


def cmd_cone_domain(args):
    from .cones import dirichlet_domain

    gamma = ser.generated_group_from_json(_maybe_inline_json(args.group))
    pos = _positive_cone_from_args(args, gamma)
    xi = _parse_vector(args.xi)
    cert = dirichlet_domain(gamma, pos, xi, word_bound=args.bound)
    if args.sectors_csv:
        emit_sectors(cert, args.sectors_csv, depth=args.sectors_depth)
    return {
        "certificate": ser.certificate_to_json(cert),
        "stabilization_depth": cert.stabilization_depth,
        "halfspaces": ser.mat_to_json(cert.halfspaces),
        "rays": ser.mat_to_json(cert.domain.rays),
    }, "Certified"


def cmd_cone_verify(args):
    from .cones import verify_fundamental_domain

    cert = ser.certificate_from_json(_maybe_inline_json(args.cert))
    report, updated = verify_fundamental_domain(
        cert,
        samples=args.samples,
        seed=args.seed,
        disjoint_word_len=args.disjoint_bound,
    )
    if args.sectors_csv:
        emit_sectors(updated, args.sectors_csv, depth=args.sectors_depth)
    return {
        "report": report,
        "certificate": ser.certificate_to_json(updated),
    }, "BoundedSearch"


def cmd_cone_siegel(args):
    from .cones import siegel_intersections

    gamma = ser.generated_group_from_json(_maybe_inline_json(args.group))
    pos = _positive_cone_from_args(args, gamma)
    pi1 = ser.cone_from_json(_maybe_inline_json(args.pi1))
    pi2 = ser.cone_from_json(_maybe_inline_json(args.pi2))
    cones, report = siegel_intersections(pos, pi1, pi2, gamma, word_bound=args.bound)
    return {
        "count": report["count"],
        "stabilized_at_depth": report["stabilized_at_depth"],
        "intersections": [ser.cone_to_json(c) for c in cones],
    }, "BoundedSearch"


def cmd_cone_member(args):
    from .cones import rational_closure_member

    pos = _positive_cone_from_args(args)
    x = _parse_vector(args.point)
    return {"member": bool(rational_closure_member(pos, x))}, "Certified"


def emit_sectors(cert, out_path, depth=3):
    """CSV of boundary rays of the domain plus labelled translates.

    Supported for ambient rank 2 or 3 only; no rendering is done here, the
    file is meant for external plotting.
    """
    import csv

    from .cones import transform_cone

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
        for d, layer in enumerate(cert.group.layers(depth)):
            if d == 0:
                continue
            for el in layer:
                moved = transform_cone(cert.domain, el.matrix)
                for ray in moved.rays:
                    rows.append([el.word, "ray"] + [str(c) for c in ray])
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _rational_isotropic_rays(pos):
    """Primitive isotropic rays of a rank-2 positive cone, when rational."""
    from math import isqrt

    from . import intlinalg as la

    if pos.dim != 2:
        return []
    g = pos.lattice.gram
    a, b, c = g[0][0], g[0][1], g[1][1]
    rays = []
    if a == 0:
        rays.extend([(1, 0), (-1, 0), (-c, 2 * b), (c, -2 * b)])
    else:
        disc = b * b - a * c
        if disc < 0:
            return []
        s = isqrt(disc)
        if s * s != disc:
            return []
        for root_num in (-b + s, -b - s):
            rays.extend([(root_num, a), (-root_num, -a)])
    out = []
    for ray in rays:
        v = la.primitive_vector(ray)
        if not la.is_zero_vector(v) and pos.q(v) == 0 and pos.pairing(v, pos.component_base) > 0:
            if v not in out:
                out.append(v)
    return out


# --- h1 subcommands ----------------------------------------------------------------------


def _group_spec(text):
    """A built-in name, or an inline/file JSON group description."""
    if text in ser.BUILTIN_GROUPS:
        return text
    return _maybe_inline_json(text)


def cmd_h1_compute(args):
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
        "representatives": [list(rep) for rep in h1.representatives],
        "cocycle_count": len(h1.cocycles),
    }, "Certified"


def cmd_h1_twist(args):
    from .cohomology import twist_subgroup

    obj = _maybe_inline_json(args.ggroup)
    ambient = ser.ggroup_from_json(obj)
    twisted, embed = twist_subgroup(ambient, _parse_ints(args.sub), _parse_ints(args.phi))
    return {
        "carrier_elements": list(embed),
        "action": [list(p) for p in twisted.action],
    }, "Certified"


def _ses_from_json(obj):
    from .cohomology import ShortExactSequence

    def need(key):
        return ser.required(obj, key, "exact sequence")

    return ShortExactSequence(
        ser.ggroup_from_json(need("sub")),
        ser.ggroup_from_json(need("mid")),
        ser.ggroup_from_json(need("quot")),
        ser.int_vec_from_json(need("inclusion")),
        ser.int_vec_from_json(need("projection")),
    )


def cmd_h1_les(args):
    from .cohomology import les_of_pointed_sets, twist_fiber_check

    ses = _ses_from_json(_maybe_inline_json(args.seq))
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
        fibers = []
        for phi in rep.h1_mid.representatives:
            fibers.append(twist_fiber_check(ses, phi))
        payload["fibers"] = fibers
        if not all(f["bijection"] for f in fibers):
            raise Undecidable("fiber-orbit bijection failed")
    return payload, "Certified"


def cmd_h1_filtration(args):
    from .cohomology import (
        FgAbelian,
        SplitExtensionSpec,
        filtration_driver_finite,
        filtration_driver_split,
    )

    obj = _maybe_inline_json(args.spec)

    def need(key):
        return ser.required(obj, key, "filtration spec")

    kind = need("kind")
    if kind == "finite":
        group = ser.finite_group_from_json(need("group"))
        gg = ser.ggroup_from_json(
            {
                "group": need("g"),
                "carrier": obj["group"],
                "action": obj.get("action", "trivial"),
            }
        )
        layers = ser.list_from_json(obj.get("chain", []), "chain")
        chain = [ser.int_vec_from_json(layer) for layer in layers]
        out = filtration_driver_finite(group, chain, gg)
        return {
            "h1_size": out["h1_size"],
            "per_layer": out["per_layer"],
            "finite_subgroup_order_bound": out["finite_subgroup_order_bound"],
        }, "Certified"
    if kind == "split":
        module = FgAbelian(
            ser.int_from_json(need("free_rank")),
            ser.int_vec_from_json(obj.get("torsion", [])),
        )
        quotient = ser.finite_group_from_json(need("quotient"))
        q_action = tuple(
            ser.int_mat_from_json(m) for m in ser.list_from_json(need("q_action"), "q_action")
        )
        spec = SplitExtensionSpec(module, quotient, q_action)
        g = ser.finite_group_from_json(need("g"))
        out = filtration_driver_split(spec, g)
        return {
            "h1_size": out["h1_size"],
            "fibers": [
                {
                    "quotient_class": list(f["quotient_class"]),
                    "h1_kernel_factors": list(f["h1_kernel_factors"]),
                    "fiber_size": f["fiber_size"],
                }
                for f in out["fibers"]
            ],
            "finite_subgroup_order_bound": out["finite_subgroup_order_bound"],
            "per_layer": out["per_layer"],
        }, "Certified"
    raise ParseError("filtration spec kind must be 'finite' or 'split'")


def cmd_h1_real_forms(args):
    from .cohomology import KleinGroupData, real_structure_classifier

    obj = _maybe_inline_json(args.klein)

    def need(key):
        return ser.required(obj, key, "klein group")

    carrier = ser.finite_group_from_json(need("carrier"))
    kg = KleinGroupData(
        carrier, ser.int_vec_from_json(need("eps")), ser.int_from_json(need("sigma"))
    )
    out = real_structure_classifier(kg)
    payload = {
        "class_count": len(out["direct_classes"]),
        "direct_classes": out["direct_classes"],
        "h1_size": out["h1_size"],
        "h1_representatives": [list(rep) for rep in out["h1_representatives"]],
        "paths_agree": out["paths_agree"],
        "k_conjugacy_equals_kernel_conjugacy": out[
            "k_conjugacy_equals_kernel_conjugacy"
        ],
    }
    if args.inner_twist:
        payload["inner_twist"] = _inner_twist_summary(kg)
    if not out["paths_agree"]:
        raise Undecidable("classification paths disagree")
    return payload, "Certified"


def _inner_twist_summary(kg):
    from .cohomology import cyclic, inner_twist_bijection

    rep = inner_twist_bijection(
        cyclic(2), kg.carrier, range(kg.carrier.order), kg.sigma
    )
    return {
        "mode": rep["mode"],
        "bijection_holds": rep["bijection_holds"],
        "h1_inner_size": rep["h1_inner_size"],
        "h1_trivial_size": rep["h1_trivial_size"],
    }


# --- hk subcommands ---------------------------------------------------------------------------


def cmd_hk_ns(args):
    from .hodge import neron_severi, ns_plus_t_index, transcendental
    from .lattice import classify_type

    h = ser.hodge_from_json(_maybe_inline_json(args.hodge))
    ns = neron_severi(h)
    t = transcendental(h)
    return {
        "ns_basis": ser.mat_to_json(ns.basis),
        "transcendental_basis": ser.mat_to_json(t.basis),
        "ns_plus_t_index": ns_plus_t_index(h),
        "ns_type": classify_type(ns.as_lattice()).value if ns.rank else "Zero",
    }, "Certified"


def cmd_hk_projective(args):
    from .hodge import is_projective_type

    h = ser.hodge_from_json(_maybe_inline_json(args.hodge))
    return {"projective_type": bool(is_projective_type(h))}, "Certified"


def cmd_hk_torelli(args):
    from .hodge import torelli_anti_check

    phi = ser.int_mat_from_json(_maybe_inline_json(args.phi))
    h_src = ser.hodge_from_json(_maybe_inline_json(args.source))
    h_tgt = ser.hodge_from_json(_maybe_inline_json(args.target))
    k_src = ser.kahler_model_from_json(_maybe_inline_json(args.ksource))
    k_tgt = ser.kahler_model_from_json(_maybe_inline_json(args.ktarget))
    spec = ser.monodromy_spec_from_json(_maybe_inline_json(args.mon))
    out = torelli_anti_check(phi, h_src, h_tgt, k_src, k_tgt, spec)
    completeness = (
        "BoundedSearch" if out["parallel_transport_mode"] == "bounded" else "Certified"
    )
    return out, completeness


def cmd_hk_hilbert(args):
    from .hodge import hilbert_square_extension
    from .isometry import Isometry

    h = ser.hodge_from_json(_maybe_inline_json(args.hodge))
    sigma = ser.int_mat_from_json(_maybe_inline_json(args.sigma))
    h_ext, klein, report = hilbert_square_extension(
        h, args.n, Isometry(h.lattice, sigma)
    )
    payload = {
        "lattice": ser.lattice_to_json(h_ext.lattice),
        "klein": ser.klein_to_json(klein),
        "report": {
            k: (ser.vec_to_json(v) if k == "anti_invariant_class" and v else v)
            for k, v in report.items()
        },
    }
    if not report["all_pass"]:
        raise Undecidable("hilbert extension checks failed")
    return payload, "Certified"


def cmd_hk_kaut_criterion(args):
    from .hodge import kaut_star_criterion

    phi = ser.int_mat_from_json(_maybe_inline_json(args.phi))
    h = ser.hodge_from_json(_maybe_inline_json(args.hodge))
    km = ser.kahler_model_from_json(_maybe_inline_json(args.cone))
    spec = ser.monodromy_spec_from_json(_maybe_inline_json(args.mon))
    v = kaut_star_criterion(phi, h, km, spec)
    payload = {"verdict": v.kind}
    if v.kind == "KleinRealizable":
        payload["sign"] = v.sign
    if v.reason:
        payload["reason"] = v.reason
    completeness = "Certified" if v.kind != "Undecided" else "BoundedSearch"
    return payload, completeness


def cmd_hk_classify_subgroups(args):
    from .hodge import classify_finite_subgroups_on_cone

    gamma = ser.generated_group_from_json(_maybe_inline_json(args.gamma))
    cert = ser.certificate_from_json(_maybe_inline_json(args.domain))
    classes, report = classify_finite_subgroups_on_cone(gamma, cert)
    return {
        "class_count": len(classes),
        "classes": [[ser.mat_to_json(m) for m in cl] for cl in classes],
        "s_size": report["s_size"],
        "completeness": report["completeness"],
    }, report["completeness"]


# --- dispatcher -------------------------------------------------------------------------------


def build_parser():
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
    sub = parser.add_subparsers(dest="command")

    def add_parser(group, name):
        return group.add_parser(name, parents=[common])

    def add_lattice_io(p):
        p.add_argument("--in", dest="infile", help="lattice JSON file or inline JSON")
        p.add_argument("--name", help="built-in lattice name (U, E8(-1), K3, ...)")

    p_lat = sub.add_parser("lattice").add_subparsers(dest="subcommand")
    for name, fn in (
        ("signature", cmd_lattice_signature),
        ("radical", cmd_lattice_radical),
        ("classify", cmd_lattice_classify),
        ("discriminant", cmd_lattice_discriminant),
        ("saturate", cmd_lattice_saturate),
    ):
        p = add_parser(p_lat, name)
        add_lattice_io(p)
        if name == "saturate":
            p.add_argument("--sub", required=True, help="sublattice JSON")
        p.set_defaults(func=fn)

    p_isom = sub.add_parser("isom").add_subparsers(dest="subcommand")
    p = add_parser(p_isom, "check")
    add_lattice_io(p)
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_isom_check)
    p = add_parser(p_isom, "definite-group")
    add_lattice_io(p)
    p.set_defaults(func=cmd_isom_definite_group)
    p = add_parser(p_isom, "fix-sublattice")
    add_lattice_io(p)
    p.add_argument("--sub", required=True)
    p.add_argument("--bound", type=int, default=1)
    p.set_defaults(func=cmd_isom_fix_sublattice)
    p = add_parser(p_isom, "stabilizer")
    p.add_argument("--group", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--cert", help="domain certificate enabling reduction-based membership")
    p.set_defaults(func=cmd_isom_stabilizer)

    p_cone = sub.add_parser("cone").add_subparsers(dest="subcommand")
    p = add_parser(p_cone, "domain")
    p.add_argument("--group", required=True)
    p.add_argument("--base", help="component base vector, e.g. '1,0'")
    p.add_argument("--pos", help="positive cone JSON (alternative to --base)")
    p.add_argument("--xi", required=True)
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--sectors-csv", dest="sectors_csv")
    p.add_argument("--sectors-depth", dest="sectors_depth", type=int, default=3)
    p.set_defaults(func=cmd_cone_domain)
    p = add_parser(p_cone, "verify")
    p.add_argument("--cert", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--disjoint-bound", dest="disjoint_bound", type=int, default=6)
    p.add_argument("--sectors-csv", dest="sectors_csv")
    p.add_argument("--sectors-depth", dest="sectors_depth", type=int, default=3)
    p.set_defaults(func=cmd_cone_verify)
    p = add_parser(p_cone, "siegel")
    p.add_argument("--group", required=True)
    p.add_argument("--base")
    p.add_argument("--pos")
    p.add_argument("--pi1", required=True)
    p.add_argument("--pi2", required=True)
    p.add_argument("--bound", type=int, default=12)
    p.set_defaults(func=cmd_cone_siegel)
    p = add_parser(p_cone, "member")
    add_lattice_io(p)
    p.add_argument("--base", required=True)
    p.add_argument("--pos")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_cone_member)

    p_h1 = sub.add_parser("h1").add_subparsers(dest="subcommand")
    p = add_parser(p_h1, "compute")
    p.add_argument("--group", required=True, help="acting group name, e.g. Z2")
    p.add_argument("--coeff", required=True, help="coefficient group name")
    p.add_argument("--action", default="trivial")
    p.set_defaults(func=cmd_h1_compute)
    p = add_parser(p_h1, "twist")
    p.add_argument("--ggroup", required=True)
    p.add_argument("--sub", required=True, help="comma-separated carrier indices")
    p.add_argument("--phi", required=True, help="comma-separated cocycle values")
    p.set_defaults(func=cmd_h1_twist)
    p = add_parser(p_h1, "les")
    p.add_argument("--seq", required=True)
    p.add_argument("--fibers", action="store_true")
    p.set_defaults(func=cmd_h1_les)
    p = add_parser(p_h1, "filtration")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_h1_filtration)
    p = add_parser(p_h1, "real-forms")
    p.add_argument("--klein", required=True)
    p.add_argument("--inner-twist", dest="inner_twist", action="store_true")
    p.set_defaults(func=cmd_h1_real_forms)

    p_hk = sub.add_parser("hk").add_subparsers(dest="subcommand")
    p = add_parser(p_hk, "ns")
    p.add_argument("--hodge", required=True)
    p.set_defaults(func=cmd_hk_ns)
    p = add_parser(p_hk, "projective")
    p.add_argument("--hodge", required=True)
    p.set_defaults(func=cmd_hk_projective)
    p = add_parser(p_hk, "torelli")
    p.add_argument("--phi", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--ksource", required=True)
    p.add_argument("--ktarget", required=True)
    p.add_argument("--mon", required=True)
    p.set_defaults(func=cmd_hk_torelli)
    p = add_parser(p_hk, "hilbert")
    p.add_argument("--hodge", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=cmd_hk_hilbert)
    p = add_parser(p_hk, "kaut-criterion")
    p.add_argument("--phi", required=True)
    p.add_argument("--hodge", required=True)
    p.add_argument("--cone", required=True)
    p.add_argument("--mon", required=True)
    p.set_defaults(func=cmd_hk_kaut_criterion)
    p = add_parser(p_hk, "classify-subgroups")
    p.add_argument("--gamma", required=True)
    p.add_argument("--domain", required=True)
    p.set_defaults(func=cmd_hk_classify_subgroups)

    return parser


def _echo_request(args):
    skip = {"func", "out"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _write_output(text, out):
    if out == "-":
        sys.stdout.write(text + "\n")
        return
    import tempfile

    d = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".klein-lattice-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # verification failures here, so unknown commands/flags map to 1
        return 0 if exc.code == 0 else 1
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    start = time.monotonic()
    try:
        result, completeness = args.func(args)
    except VERIFICATION_ERRORS as exc:
        report = {
            "request": _echo_request(args),
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "seed": args.seed,
            "elapsed_ms": int((time.monotonic() - start) * 1000),
        }
        _write_output(json.dumps(report, indent=2, sort_keys=True), args.out)
        return 2
    except KleinLatticeError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    report = {
        "request": _echo_request(args),
        "result": result,
        "completeness": completeness,
        "seed": args.seed,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }
    _write_output(json.dumps(report, indent=2, sort_keys=True), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
