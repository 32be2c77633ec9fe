"""Command-line interface, run configuration, and file exporters.

Subcommands:
    family    generate + verify a family from a JSON config
    demo      canned configurations (catenoid | helicoid | bcv)
    natural   extract natural parameters from a lifted-curve CSV
    verify    re-check a serialized member JSON
    mesh      re-export a serialized member as an OBJ mesh

Exit status: 0 on success, 2 when --strict and a verification fails or on
a usage error, 1 on configuration or domain errors (single-line diagnostic
on stderr).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import cache, partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import _documents, bour, natural, spaces, verify
from ._documents import NUMBER
from ._text import rows_bytes, word_rows_bytes
from .errors import BourgenError, ConfigError, SpecError
from .expressions import Expression, parse_expression
from .natural import GeneratrixMetric, LiftedCurve

DEMOS = {
    "catenoid": {
        "space": {"kind": "euclidean_rotational", "a": 0.0},
        "generatrix": "sqrt(s^2+1)",
        "m_values": [1.0],
        "epsilon": 1,
        "s_range": [-2.0, 2.0],
        "step": 0.01,
        "anchor": 0.0,
    },
    "helicoid": {
        "space": {"kind": "euclidean_helicoidal", "a": 1.0},
        "generatrix": "sqrt(s^2+1)",
        "m_values": [1.0],
        "epsilon": 1,
        "s_range": [0.5, 2.0],
        "step": 0.005,
    },
    "bcv": {
        "space": {"kind": "bcv_helicoidal", "a": 1.0, "kappa": 1.0, "tau": 1.0},
        "generatrix": "sqrt(s^2+4)",
        "m_values": [1.0],
        "epsilon": 1,
        "s_range": [0.0, 1.0],
        "step": 0.005,
    },
}


# the entries of a family or demo config, by the object that holds them
# ("" for the top level): RunConfig reads these, and refuses any other
_CONFIG_ENTRIES = {
    "": ("space", "generatrix", "m_values", "epsilon", "s_range", "step",
         "anchor", "theta0", "grid", "tolerances", "seed"),
    "grid": ("s_count", "t_count", "t_range"),
    "tolerances": ("isometry", "cross_check", "fd_step"),
}


@dataclasses.dataclass
class RunConfig:
    """Validated run configuration (see README for the JSON schema)."""

    space: spaces.SpaceSpec
    generatrix: object  # expression text, parsed on construction; or {"csv": path}
    m_values: list
    epsilon: int
    s_range: tuple
    step: float
    anchor: Optional[float]
    theta0: float
    s_count: int
    t_count: int
    t_range: tuple
    isometry_tol: float
    cross_tol: float
    fd_step: float
    seed: int

    def __post_init__(self):
        # an expression is parsed here, once; report.json keeps its text
        if isinstance(self.generatrix, str):
            try:
                self.generatrix = parse_expression(self.generatrix)
            except BourgenError as exc:
                raise ConfigError(f"generatrix does not parse: {exc}")

    @classmethod
    def from_dict(cls, d):
        """The run configuration of a config document, each entry read by
        ``_documents``; an entry that it or SpaceSpec refuses, a value out
        of its entry's range, and an entry of the top level, of 'grid' or
        of 'tolerances' that is not read (_CONFIG_ENTRIES) are ConfigErrors
        that name the entry."""
        return _config(cls._read, d)

    @classmethod
    def _read(cls, d, document):
        """The run configuration of the document ``d``, named ``document``
        in messages."""
        entry = partial(_documents.entry, d, document)
        samples = partial(_documents.samples, d, document)
        require = partial(_documents.require, document)

        def pair(name):
            return tuple(samples(name, 2, (0.0, 1.0)).tolist())
        for parent, keys in _CONFIG_ENTRIES.items():
            node = d.get(parent) if parent else d
            for key in node if isinstance(node, dict) else ():
                if key not in keys:
                    name = f"{parent}.{key}" if parent else key
                    raise ValueError(f"the {document} has an unknown "
                                     f"{name!r} entry")
        space = _documents.space(d, document)
        generatrix = entry("generatrix", (str, dict))
        if isinstance(generatrix, dict):
            entry("generatrix.csv", str)
        m_values = samples("m_values", default=[1.0]).tolist()
        require(m_values, "m_values", "a list of one m or more", m_values)
        for k, m in enumerate(m_values):
            rule = ("m must be positive" if not m > 0 else
                    "m values must be distinct" if m in m_values[:k] else None)
            if rule:
                raise ConfigError(f"the {document}'s 'm_values' entry "
                                  f"holds {m!r}, but {rule}")
        tol = {name: _positive(entry("tolerances." + name, NUMBER, 1e-5),
                               f"the {document}'s 'tolerances.{name}' entry")
               for name in ("isometry", "cross_check", "fd_step")}
        cfg = cls(
            space=space, generatrix=generatrix, m_values=m_values,
            epsilon=entry("epsilon", int, 1), s_range=pair("s_range"),
            step=entry("step", NUMBER, 0.005),
            anchor=None if d.get("anchor") is None else entry("anchor", NUMBER),
            theta0=entry("theta0", NUMBER, 0.0),
            s_count=entry("grid.s_count", int, 21),
            t_count=entry("grid.t_count", int, 21),
            t_range=pair("grid.t_range"), isometry_tol=tol["isometry"],
            cross_tol=tol["cross_check"], fd_step=tol["fd_step"],
            seed=entry("seed", int, 20240901))
        require(cfg.epsilon in (1, -1), "epsilon", "1 or -1", cfg.epsilon)
        for name in ("theta0", "anchor"):
            value = getattr(cfg, name)
            require(value is None or abs(value) <= sys.float_info.max, name,
                    "a finite number", value)
        for name in ("s_count", "t_count"):
            count = getattr(cfg, name)
            if count < 2:
                raise ConfigError(f"the {document}'s 'grid.{name}' entry is "
                                  f"{count!r}, but grid counts must be at "
                                  f"least 2")
            require(count <= _documents.MAX_GRID_COUNT, "grid." + name,
                    f"at most {_documents.MAX_GRID_COUNT}", count)
        require(cfg.s_range[0] < cfg.s_range[1], "s_range", "increasing",
                list(cfg.s_range))
        return cfg

    def make_generatrix(self):
        gen = self.generatrix
        if isinstance(gen, Expression):
            try:
                return GeneratrixMetric.from_expression(gen, self.s_range)
            except ValueError as exc:
                raise ConfigError(f"generatrix: {exc}")
        try:
            U = GeneratrixMetric.from_csv(gen["csv"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"generatrix {gen['csv']}: {exc}")
        sys.stderr.write(
            "note: CSV generatrix uses monotone-cubic interpolation with "
            "interpolated U'; radicand checks are approximate\n")
        return U


def _load_config(path):
    """The JSON object in a config file; a missing or malformed file, or a
    document that is not an object, is a ConfigError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config: the document must be a JSON object, "
                          f"not {type(doc).__name__}")
    return doc


def _load_member(path):
    """The SurfaceMember in a member file; a missing or malformed file,
    and a space that SpaceSpec refuses, are ConfigErrors."""
    try:
        return bour.SurfaceMember.from_json(path)
    except (OSError, ValueError, SpecError) as exc:
        raise ConfigError(f"member: {exc}")


def _config(read, d):
    """read(d, "config"), its ValueError or SpecError a ConfigError."""
    try:
        return read(d, "config")
    except (ValueError, SpecError) as exc:
        raise ConfigError(str(exc)) from exc


def _positive(value, what):
    """value, if it is a positive finite number; else a ConfigError that
    names ``what``."""
    if not 0.0 < value <= sys.float_info.max:
        raise ConfigError(f"{what} must be a positive finite number, "
                          f"not {value!r}")
    return value


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def write_profile_csv(words, path):
    """The profile CSV of a member: the header line, then s, x1, x2,
    omega, theta and V at each node, from the text words of these columns
    that ``SurfaceMember.to_json`` returns, so that each value is
    formatted once for both files (-0.0 is "-0" here, "-0.0" there)."""
    with open(path, "wb") as fh:
        fh.write(b"s,x1,x2,omega,theta,V\n")
        fh.write(word_rows_bytes(words))


# the (s, t) vertex grid of an OBJ mesh
OBJ_S_COUNT = 41
OBJ_T_COUNT = 41


def write_obj(member, space, path, t_range=(0.0, 1.0)):
    """Triangulated (s, t) grid mesh in ambient cartesian coordinates.

    The grid takes OBJ_S_COUNT values of s over the member range and
    OBJ_T_COUNT values of t over t_range.  Vertices are laid out row-major
    in s; each grid cell becomes two triangles.  The map gives x1 and x2
    once per row of s, since they do not depend on t, so they are
    embedded once per row.
    """
    s_values = np.linspace(member.s_range[0], member.s_range[1], OBJ_S_COUNT)
    t_values = np.linspace(t_range[0], t_range[1], OBJ_T_COUNT)
    xyz = np.broadcast_arrays(*spaces.mesh_xyz(
        space, member.map(s_values[:, None], t_values)))
    with open(path, "wb") as fh:
        fh.write(f"# bourgen member m={member.m:.17g}\n".encode())
        fh.write(rows_bytes([c.ravel() for c in xyz], " ", "v "))
        fh.write(_obj_faces())


@cache
def _obj_faces():
    """The face lines of the row-major (OBJ_S_COUNT, OBJ_T_COUNT) vertex
    grid, two triangles per cell, each line ending in a newline, as bytes:
    the same for every member, so built once."""
    lines = []
    for i in range(OBJ_S_COUNT - 1):
        for j in range(OBJ_T_COUNT - 1):
            v00 = i * OBJ_T_COUNT + j + 1
            v10 = (i + 1) * OBJ_T_COUNT + j + 1
            v11 = (i + 1) * OBJ_T_COUNT + j + 2
            v01 = i * OBJ_T_COUNT + j + 2
            lines.append(f"f {v00} {v10} {v11}\n")
            lines.append(f"f {v00} {v11} {v01}\n")
    return "".join(lines).encode()


def _write_json(payload, path):
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _member_name(m):
    return f"member_m{m:g}".replace(".", "p")


def _process_member(cfg, U, frame, m, out_dir, strict=False):
    """Build the member m of ``cfg``, cross-check it against the closed
    form of its space (``spaces.closed_form``), measure its isometry and
    write its three artifacts; return its report.json entry."""
    # checked on the requested range before the feasibility scan reads
    # the step
    params = bour.BourParams(m=m, s_range=cfg.s_range, step=cfg.step,
                             epsilon=cfg.epsilon)
    s_range = bour.feasible_s_range(U, m, frame, cfg.s_range,
                                    theta_ref=cfg.theta0, step=cfg.step)
    result = {"m": m, "requested_s_range": list(cfg.s_range),
              "s_range": list(s_range), "shrunk": s_range != cfg.s_range}
    anchor = cfg.anchor
    if anchor is not None and not s_range[0] <= anchor <= s_range[1]:
        if strict:
            raise ConfigError(
                f"m = {m:g}: anchor {anchor:g} lies outside the feasible "
                f"s_range [{s_range[0]:.6g}, {s_range[1]:.6g}]")
        # the member is anchored at s0 instead; only then is the key written
        result["anchor_dropped"] = anchor
        anchor = None
    params = dataclasses.replace(params, s_range=s_range, anchor=anchor)
    member = bour.generate_member(U, params, frame, cfg.theta0, space=cfg.space)

    # every built-in space has a closed form, anchored where the member is
    closed = spaces.closed_form(cfg.space, U, m, cfg.epsilon, member.s,
                                member.metadata["anchor"])
    cross = verify.cross_check(closed, member)
    result["cross_check"] = cross.to_dict()
    result["cross_check_passed"] = cross.passed(cfg.cross_tol)

    h = cfg.fd_step
    s_grid = np.linspace(s_range[0] + 2 * h, s_range[1] - 2 * h, cfg.s_count)
    t_grid = np.linspace(cfg.t_range[0], cfg.t_range[1], cfg.t_count)
    report = verify.isometry_report(frame.chart, member, U,
                                    (s_grid, t_grid), tol=cfg.isometry_tol, h=h)
    result["isometry"] = report.to_dict()
    result["passed"] = bool(report.passed and result["cross_check_passed"])
    # the member file stores the grid, for verify to measure it again
    member.isometry_grid = {k: result["isometry"][k] for k in (
        "s_range", "grid_shape", "t_range", "fd_step", "tol")}

    name = _member_name(m)
    # the CSV's text is the member file's, freed before the OBJ's is made
    write_profile_csv(member.to_json(out_dir / f"{name}.json"),
                      out_dir / f"{name}_profile.csv")
    write_obj(member, cfg.space, out_dir / f"{name}.obj",
              t_range=cfg.t_range)
    result["artifacts"] = [f"{name}_profile.csv", f"{name}.json", f"{name}.obj"]
    return result


def run(cfg, out_dir, strict=False):
    """Generate, verify and export every requested member.

    Returns (exit_code, report_dict); the report is also written to
    report.json in the output directory.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    U = cfg.make_generatrix()
    frame = spaces.builtin_frame(cfg.space)
    report = {"space": cfg.space.to_dict(),
              "generatrix": cfg.generatrix.text
              if isinstance(cfg.generatrix, Expression) else "csv",
              "seed": cfg.seed,
              "members": []}
    for m in cfg.m_values:
        report["members"].append(_process_member(cfg, U, frame, m, out_dir,
                                                  strict))
    report["all_passed"] = bool(all(r["passed"] for r in report["members"]))
    _write_json(report, out_dir / "report.json")
    for r in report["members"]:
        status = "pass" if r["passed"] else "FAIL"
        print(f"m={r['m']:g}: {status} "
              f"(isometry max dev {max(r['isometry']['max_E_dev'], r['isometry']['max_F_dev'], r['isometry']['max_G_dev']):.3e}, "
              f"cross-check rho/angle dev {r['cross_check']['rho_dev']:.3e}/"
              f"{r['cross_check']['angle_dev']:.3e})")
    if not report["all_passed"] and strict:
        return 2, report
    return 0, report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_family(args):
    """family on its config file, and demo on the demo's config."""
    doc = (DEMOS[args.name] if args.command == "demo"
           else _load_config(args.config))
    code, _ = run(_apply_overrides(RunConfig.from_dict(doc), args), args.out,
                  strict=args.strict)
    return code


def _apply_overrides(cfg, args):
    if args.step is not None:
        cfg.step = args.step
    if args.tol is not None:
        cfg.isometry_tol = args.tol
        cfg.cross_tol = args.tol
    cfg.fd_step = _given(args.fd_step, cfg.fd_step)
    return cfg


def _check_options(args):
    """A --tol or --fd-step that is not positive and finite is a
    ConfigError naming the option, raised before the command reads or
    writes any file."""
    for flag, dest in (("--tol", "tol"), ("--fd-step", "fd_step")):
        value = getattr(args, dest, None)  # mesh takes neither
        if value is not None:
            _positive(value, flag)


def _given(value, default):
    """A command-line override, or the default when it was not given."""
    return default if value is None else value


def _cmd_natural(args):
    h = _given(args.fd_step, 1e-5)
    chart = spaces.make_chart(_config(_documents.space,
                                      _load_config(args.config)))
    try:
        curve = LiftedCurve.from_csv(args.curve)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"curve {args.curve}: {exc}")
    coeffs = natural.pullback_coefficients(chart, curve)
    nat = natural.to_natural(coeffs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nat.U.to_csv(out / "generatrix.csv")
    surface = natural.ReparametrizedSurface(curve, nat)
    s_grid = np.linspace(nat.s_samples[0] + 2 * h, nat.s_samples[-1] - 2 * h, 15)
    rep = verify.isometry_report(chart, surface, nat.U, (s_grid, [0.0, 0.5]),
                                 tol=_given(args.tol, 1e-5), h=h)
    payload = {"s_range": [float(nat.s_samples[0]), float(nat.s_samples[-1])],
               "isometry": rep.to_dict()}
    _write_json(payload, out / "natural_report.json")
    print(f"natural parameters extracted: s in [{nat.s_samples[0]:.6g}, "
          f"{nat.s_samples[-1]:.6g}]; reparametrization "
          f"{'passes' if rep.passed else 'FAILS'} the isometry check")
    if args.strict and not rep.passed:
        return 2
    return 0


def _cmd_verify(args):
    """verify on the isometry grid that the member file stores, which
    gives report.json's maxima; with --fd-step, or for a file that stores
    no grid (version 1), on 15 x 7 points over the member range and t in
    [0, 1], at a tolerance of 1e-5 unless --tol is given."""
    member = _load_member(args.member)
    if member.space is None:
        raise ConfigError("member file carries no space spec; cannot rebuild "
                          "the chart for verification")
    if member.U is None:
        raise ConfigError("member file carries no generatrix")
    chart = spaces.make_chart(member.space)
    grid = member.isometry_grid
    if grid is None or args.fd_step is not None:
        if grid is None:
            sys.stderr.write("note: the member file stores no isometry grid; "
                             "verifying on 15 x 7 points, t in [0, 1]\n")
        h = _given(args.fd_step, 1e-5)
        grid = {"s_range": [member.s_range[0] + 2 * h,
                            member.s_range[1] - 2 * h],
                "grid_shape": [15, 7], "t_range": [0.0, 1.0], "fd_step": h,
                "tol": 1e-5}
    (s0, s1), (s_count, t_count) = grid["s_range"], grid["grid_shape"]
    rep = verify.isometry_report(
        chart, member, member.U, (np.linspace(s0, s1, s_count),
                                  np.linspace(*grid["t_range"], t_count)),
        tol=_given(args.tol, grid["tol"]), h=grid["fd_step"])
    print(f"member m={member.m:g}: "
          f"{'pass' if rep.passed else 'FAIL'} "
          f"(max devs E {rep.max_E_dev:.3e}, F {rep.max_F_dev:.3e}, "
          f"G {rep.max_G_dev:.3e})")
    if args.strict and not rep.passed:
        return 2
    return 0


def _cmd_mesh(args):
    member = _load_member(args.member)
    if member.space is None:
        raise ConfigError("member file carries no space spec; cannot embed")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / (Path(args.member).stem + ".obj")
    # family's t window, which a version-1 file does not store
    grid = member.isometry_grid
    write_obj(member, member.space, path,
              t_range=(0.0, 1.0) if grid is None else grid["t_range"])
    print(f"wrote {path}")
    return 0


@cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about as much as a small command."""
    parser = argparse.ArgumentParser(
        prog="bourgen",
        description="Generate and verify one-parameter families of isometric "
                    "screw-invariant surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads
    options = {
        "out": ("--out", dict(default="out", help="output directory")),
        "strict": ("--strict", dict(action="store_true",
                                    help="exit 2 when a verification fails")),
        "step": ("--step", dict(type=float, default=None,
                                help="override the integrator step")),
        "tol": ("--tol", dict(type=float, default=None,
                              help="override verification tolerances")),
        "fd_step": ("--fd-step", dict(
            dest="fd_step", type=float, default=None,
            help="finite-difference step of the form measurements "
                 "(default 1e-5)")),
    }

    def common(p, *names):
        for name in names:
            flag, kwargs = options[name]
            p.add_argument(flag, **kwargs)

    p = sub.add_parser("family", help="generate a family from a config")
    p.add_argument("--config", required=True)
    common(p, "out", "strict", "step", "tol", "fd_step")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("demo", help="run a canned demo")
    p.add_argument("name", choices=sorted(DEMOS))
    common(p, "out", "strict", "step", "tol", "fd_step")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("natural", help="extract natural parameters from a curve CSV")
    p.add_argument("--config", required=True, help="config carrying the space")
    p.add_argument("--curve", required=True, help="CSV with columns u,x1,x2,x3")
    common(p, "out", "strict", "tol", "fd_step")
    p.set_defaults(func=_cmd_natural)

    p = sub.add_parser("verify", help="re-check a serialized member")
    p.add_argument("member", help="member JSON file")
    common(p, "strict", "tol", "fd_step")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mesh", help="re-export a serialized member as OBJ")
    p.add_argument("member", help="member JSON file")
    common(p, "out")
    p.set_defaults(func=_cmd_mesh)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except BourgenError as exc:
        stage = type(exc).__name__
        sys.stderr.write(f"error: {stage}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
