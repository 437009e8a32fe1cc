"""Command line front end.

Four subcommands:

    rh          end states of a shock from (q1, strength) or (q0, q1)
    profile     one dissipation profile, classified; CSV + JSON output
    scan        classify profiles over a strength grid; CSV + JSON
    causality   classify a BDN coefficient triple

Options can come from an INI config file (--config) with sections
[eos], [model], [shock], [solver], [scan], [output].  A file value
becomes the raw default of its flag, so argparse converts it with the
flag's own type, and only when the flag is absent: a flag wins, and a
malformed value is reported under the flag's name, gnuplot's with its key.
An unknown section or key is a configuration error; a key that only
another subcommand reads is never read.  Numeric options accept
fractions like 4/3.

Exit codes: 0 success (end states found, profile connected, scan or
classification completed); 1 configuration error (bad flags, malformed
config, model/EOS mismatch, an ft tensor with sigma <= 0 at the shock,
empty grid); 2 no shock for the requested fluxes; 3 profile failure
classification (no_connection, escaped_domain, singular_matrix).

rh, causality and everything before a solve run without numpy: the
profile and scan solvers, which need it, are imported by the commands
that run them, and configparser only when --config is given.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .fluid_core import EosError, linspace, make_eos
from .rankine_hugoniot import NoShock, end_states, shock_from_strength
from .dissipation import (CausalityError, BdnCoefficients, FtCoefficients,
                          bdn_causality_class, make_model)
from .rk45 import METHODS, SETTINGS, _default_settings

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOSHOCK = 2
EXIT_PROFILE = 3

COEFFICIENTS = tuple(dict.fromkeys(FtCoefficients._fields
                                   + BdnCoefficients._fields))


def fracfloat(text):
    """Float parser that also accepts rationals like 4/3."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _grid(text):
    """The type of --strengths: 'lo:hi:n' (inclusive) or a comma list."""
    if ":" not in text:
        return [fracfloat(v) for v in text.split(",")]
    try:
        lo, hi, n = text.split(":")
        return linspace(fracfloat(lo), fracfloat(hi), int(n))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not lo:hi:n with n a non-negative integer: {text!r}") from None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="shockscan",
        description="Relativistic shock end states and dissipation profiles")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run, model=True):
        p.set_defaults(run=run)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--eos", help="radiation | power-law:K | file:PATH")
        p.add_argument("--q1", type=fracfloat, help="momentum flux")
        p.add_argument("--out", help="output directory (default .)")
        if model:
            p.add_argument("--model", help="ft-viscous | ft-heat | bdn | eckart")
            p.add_argument("--eta", type=fracfloat, help="shear viscosity")
            p.add_argument("--zeta", type=fracfloat, help="bulk viscosity")
            p.add_argument("--chi", type=fracfloat, help="heat conduction")
            p.add_argument("--mu", type=fracfloat, help="first regulator")
            p.add_argument("--nu", type=fracfloat, help="second regulator")
            p.add_argument("--tol-conn", type=fracfloat, dest="tol_conn")
            p.add_argument("--tol-rtol", type=fracfloat, dest="rtol")
            p.add_argument("--tol-atol", type=fracfloat, dest="atol")
            p.add_argument("--method", help="integrator: "
                           f"{' or '.join(METHODS)} "
                           f"(default {SETTINGS['method']})")
            p.add_argument("--gnuplot", action="store_true",
                           help="also write a gnuplot script")

    # no abbreviations: a prefix of a flag would change meaning when a
    # longer flag is added, as --strength would pass for --strengths
    p_rh = sub.add_parser("rh", help="end states from the jump conditions",
                          allow_abbrev=False)
    common(p_rh, cmd_rh, model=False)
    p_rh.add_argument("--json", action="store_true",
                      help="write rh.json to the output directory")

    p_prof = sub.add_parser("profile", help="compute one dissipation profile",
                            allow_abbrev=False)
    common(p_prof, cmd_profile)

    # one shock: rh and profile only, so scan refuses these flags
    for p in (p_rh, p_prof):
        p.add_argument("--strength", type=fracfloat,
                       help="shock strength in (0, 1)")
        p.add_argument("--q0", type=fracfloat,
                       help="energy flux (alternative to --strength)")

    p_scan = sub.add_parser("scan", help="classify profiles over a grid",
                            allow_abbrev=False)
    common(p_scan, cmd_scan)
    p_scan.add_argument("--strengths", type=_grid, default="0.05:0.95:19",
                        help="grid 'lo:hi:n' or comma list (default "
                             "%(default)s)")
    p_scan.add_argument("--workers", type=int,
                        help="process count (default 1)")

    p_caus = sub.add_parser("causality",
                            help="classify a BDN coefficient triple")
    p_caus.add_argument("--eta", type=fracfloat, default=1.0)
    p_caus.add_argument("--mu", type=fracfloat, required=True)
    p_caus.add_argument("--nu", type=fracfloat, required=True)
    p_caus.set_defaults(run=cmd_causality)

    return ap, sub.choices


_CONFIG_MAP = {
    # (section, key) -> argparse dest
    ("eos", "kind"): "eos",
    ("model", "tag"): "model",
    **{("model", k): k for k in COEFFICIENTS},
    ("shock", "q1"): "q1",
    ("shock", "q0"): "q0",
    ("shock", "strength"): "strength",
    **{("solver", k): k for k in SETTINGS},
    ("scan", "strengths"): "strengths",
    ("scan", "workers"): "workers",
    ("output", "dir"): "out",
    ("output", "gnuplot"): "gnuplot",
}


def apply_config(args, parser):
    """Give parser, the subparser of args' command, the INI file's raw
    text of each key that command has as that option's default; parsing
    argv again converts it with the option's own type where its flag is
    absent.  A section or key outside _CONFIG_MAP raises ValueError."""
    import configparser
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(args.config)
    if not read:
        raise ValueError(f"config file not found: {args.config}")
    sections = {section for section, _ in _CONFIG_MAP}
    defaults = {}
    for section in cp.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key in cp.options(section):
            dest = _CONFIG_MAP.get((section, key))
            if dest is None:
                raise ValueError(
                    f"unknown config key {key!r} in [{section}]")
            if dest in vars(args):
                defaults[dest] = cp.get(section, key)
    if "gnuplot" in defaults:
        # store_true takes no type, so argparse cannot convert this one
        try:
            defaults["gnuplot"] = cp.getboolean("output", "gnuplot")
        except ValueError as exc:
            raise ValueError(f"[output] gnuplot (--gnuplot): {exc}") from None
    parser.set_defaults(**defaults)


_REQUIRED = {
    "eos": "an EOS is required (--eos or [eos] kind)",
    "model": "a model is required (--model or [model] tag)",
    "q1": "a momentum flux is required (--q1)",
}


def _require(args, *dests):
    for dest in dests:
        if getattr(args, dest) is None:
            raise ValueError(_REQUIRED[dest])


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _make_shock(args):
    _require(args, "eos", "q1")
    eos = make_eos(args.eos)
    if args.strength is not None and args.q0 is not None:
        raise ValueError("give either --strength or --q0, not both")
    if args.strength is not None:
        return eos, shock_from_strength(eos, args.q1, args.strength)
    if args.q0 is not None:
        return eos, end_states(eos, args.q0, args.q1)
    raise ValueError("either --strength or --q0 is required")


def _given(args, keys):
    """The options among keys that a flag or the config file set."""
    return {k: getattr(args, k) for k in keys
            if getattr(args, k) is not None}


def _make_model(args, eos):
    _require(args, "model")
    return make_model(args.model, eos, **_given(args, COEFFICIENTS))


def cmd_rh(args):
    eos, sd = _make_shock(args)
    d = sd.as_dict()
    print(f"eos: {d['eos']}   q0 = {d['q0']:.12g}   q1 = {d['q1']:.12g}   "
          f"strength = {d['strength']:.6g}")
    print(f"  rho_minus = {d['rho_minus']:.12g}   "
          f"rho_plus = {d['rho_plus']:.12g}   rho_bar = {d['rho_bar']:.12g}")
    print(f"  u1_minus  = {d['u1_minus']:.12g}   "
          f"u1_plus  = {d['u1_plus']:.12g}")
    print(f"  char speeds minus = ({d['char_speeds_minus'][0]:.9g}, "
          f"{d['char_speeds_minus'][1]:.9g})   "
          f"plus = ({d['char_speeds_plus'][0]:.9g}, "
          f"{d['char_speeds_plus'][1]:.9g})")
    print(f"  Lax shock: {'yes' if d['lax'] else 'no'}")
    if args.json:
        path = os.path.join(_outdir(args), "rh.json")
        with open(path, "w") as fh:
            json.dump(d, fh, indent=2)
            fh.write("\n")
        print(f"  wrote {path}")
    return EXIT_OK


def cmd_profile(args):
    from .scan import compute_profile
    settings = _given(args, SETTINGS)
    _default_settings(**settings)   # reject a bad method before solving
    eos, sd = _make_shock(args)
    model = _make_model(args, eos)
    res = compute_profile(sd, model, **settings)
    out = _outdir(args)
    jpath = os.path.join(out, "profile.json")
    with open(jpath, "w") as fh:
        json.dump(res.summary_dict(), fh, indent=2)
        fh.write("\n")
    wrote = [jpath]
    if res.connected:
        cpath = os.path.join(out, "profile.csv")
        res.to_csv(cpath)
        wrote.append(cpath)
        if args.gnuplot:
            wrote.append(_write_gp(out, "profile", "x", "rho",
                                   "1:4 with lines"))
    msg = res.classification + (f" ({res.reason})" if res.reason else "")
    if res.connected and res.width is not None:
        msg += f", width = {res.width:.6g}"
    print(msg)
    print("wrote " + ", ".join(wrote))
    return EXIT_OK if res.connected else EXIT_PROFILE


def cmd_scan(args):
    from .scan import run_scan
    _require(args, "eos", "model", "q1")
    result = run_scan(args.eos, args.model, _given(args, COEFFICIENTS),
                      [args.q1], args.strengths, workers=args.workers,
                      **_given(args, SETTINGS))
    out = _outdir(args)
    cpath = os.path.join(out, "scan.csv")
    spath = os.path.join(out, "scan_summary.json")
    result.write_csv(cpath)
    result.write_summary(spath)
    counts = result.counts()
    print("  ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    first_osc = result.first_oscillatory()
    if first_osc is not None:
        print(f"first oscillatory strength: {first_osc:.6g}")
    print(f"wall time: {result.wall_time:.2f} s")
    wrote = [cpath, spath]
    if args.gnuplot:
        wrote.append(_write_gp(out, "scan", "strength", "width",
                               "2:7 with points pt 7"))
    print("wrote " + ", ".join(wrote))
    return EXIT_OK


def cmd_causality(args):
    co = BdnCoefficients(args.eta, args.mu, args.nu)
    label, bound = bdn_causality_class(co)
    print(f"{label} (bound {bound:g})")
    return EXIT_OK


def _write_gp(out, stem, xlabel, ylabel, using):
    """Write out/STEM.gp, a gnuplot script plotting STEM.csv; returns
    its path."""
    path = os.path.join(out, stem + ".gp")
    with open(path, "w") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            f"set xlabel '{xlabel}'\n"
            f"set ylabel '{ylabel}'\n"
            f"plot '{stem}.csv' using {using}\n")
    return path


def main(argv=None):
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            apply_config(args, commands[args.command])
            args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 here means no shock
        if exc.code == 2:
            return EXIT_CONFIG
        raise
    except NoShock as exc:
        print(f"no shock: {exc}", file=sys.stderr)
        return EXIT_NOSHOCK
    except (EosError, CausalityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
