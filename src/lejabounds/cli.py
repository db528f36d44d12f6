"""Command line front end.

Subcommands: points, lebesgue, bound, itau, verify. Subcommands compute,
main writes: each _cmd_* returns (text, summary, ok), and main alone writes
the text to stdout or --out, then the <out>.meta.json sidecar (command,
effective parameters, summary; strict JSON, a non-finite float is null),
and exits 1 when ok is false. The one other write is bound --out-dir, one
delta sweep CSV per n. All output is deterministic for fixed arguments
(seeded randomness, no timestamps), so reruns are byte identical and
diffable.

Exit codes: 0 success, 1 a verification or bound check failed, 2 bad usage,
3 the Green's function of the set could not be computed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .bounds import _check_args, _exp, _log_bounds, optimize_bound, switching_constant
from .compact_set import (CompactSet, ValidationError, _check_ratio, _check_tau, cantor_approx,
                          from_spec, make_union)
from .green import GreenBuildError, build_green_model, green_interval_analytic
from .inequalities import (ineq1_log_margin, ineq2_log_margin,
                           ineq2_tightness_scan, ineq3_log_margin, ineq4)
from .interp import InterpolationOperator
from .leja import (DEFAULT_GRID_DENSITY, check_separation, quasi_leja_sequence,
                   verify_quasi_leja)
from .switching import (SwitchingInstance, chain_log_value, brute_force_log_min,
                        check_spread_bound, naive_strategy, optimal_switching,
                        two_track_strategy, worst_case_instance)


def _fmt(v) -> str:
    return repr(float(v))


def _parse_range(spec: str):
    """N, lo:hi or lo:hi:step as a range of n, hi included if the steps reach it."""
    parts = spec.split(":")
    if len(parts) == 1:
        parts *= 2
    if len(parts) == 2:
        parts.append("1")
    try:
        lo, hi, step = map(int, parts)
    except ValueError:
        raise ValidationError("bad range %r" % spec) from None
    if lo < 1 or hi < lo or step < 1:
        raise ValidationError("bad range %r" % spec)
    return range(lo, hi + 1, step)


def _build_set(args) -> CompactSet:
    """--cantor-ratio is checked even when no --cantor-depth uses it, as --seed is at tau = 1."""
    _check_ratio(args.cantor_ratio)
    if args.cantor_depth is not None:
        return cantor_approx(args.cantor_depth, args.cantor_ratio)
    if args.set_spec is not None:
        pairs = []
        for part in args.set_spec.split(";"):
            part = part.strip()
            if not part:
                continue
            try:
                lo, hi = map(float, part.split(","))
            except ValueError:
                raise ValidationError("interval %r is not 'lo,hi'" % part) from None
            pairs.append((lo, hi))
        return make_union(pairs)
    return make_union([(-1.0, 1.0)])


def _build_sequence(K: CompactSet, n: int, args):
    """tau = 1 is exact greedy: no step draws, so the seed only shows in --json."""
    return quasi_leja_sequence(K, n, args.tau, rng_seed=args.seed,
                               x0=args.x0, grid_density=args.grid_density)


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _table(header: str, rows) -> str:
    """CSV text: the header, then one line of repr floats per row."""
    return _lines([header] + [",".join(map(_fmt, row)) for row in rows])


def _finite(obj):
    """obj with every non-finite float as None, which strict JSON takes."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _prefix_lebesgue(K: CompactSet, seq, ns):
    """Lebesgue report on K of the prefix of seq for every n in ns, from one scan."""
    return InterpolationOperator.from_sequence(seq, n=max(ns)).lebesgue_constant(K, ns)


def _cmd_points(args) -> tuple[str, dict, bool]:
    K = _build_set(args)
    seq = _build_sequence(K, args.n, args)
    if args.json:
        text = _json(seq.to_json())
    else:
        text = _lines(["index,x"] + ["%d,%s" % (i, _fmt(x)) for i, x in enumerate(seq.points)])
    ratio = min(seq.achieved_ratios) if seq.achieved_ratios else 1.0
    return text, {"n": args.n, "min_separation": seq.min_separation(), "worst_ratio": ratio}, True


def _cmd_lebesgue(args) -> tuple[str, dict, bool]:
    K = _build_set(args)
    ns = _parse_range(args.n_range) if args.n_range else range(args.n, args.n + 1)
    reps = _prefix_lebesgue(K, _build_sequence(K, max(ns), args), ns)
    lines = ["n,lambda,argmax"]
    lines += ["%d,%s,%s" % (n, _fmt(r.lambda_n), _fmt(r.argmax_x)) for n, r in zip(ns, reps)]
    return _lines(lines), {"max_lambda": max(r.lambda_n for r in reps)}, True


def _cmd_bound(args) -> tuple[str, dict, bool]:
    ns = _parse_range(args.n_range) if args.n_range else None
    if ns is None and args.deltas < 1:
        raise ValidationError("deltas must be at least 1")
    _check_args(args.n if ns is None else ns[0], args.tau)
    K = _build_set(args)
    model = build_green_model(K)
    if ns is None:
        # single n: delta sweep at tau = 1 and at the requested tau
        rep = optimize_bound(model, args.n, args.tau,
                             delta_grid=np.geomspace(1e-4 * K.diam, K.diam, args.deltas))
        tau1 = map(_exp, _log_bounds(K.diam, [args.n], rep.delta_grid, rep.g_values, 1.0)[0])
        text = _table("delta,G,bound_tau1,bound_tau",
                      zip(rep.delta_grid, rep.g_values, tau1, rep.bound_values))
        return text, {"best_delta": rep.best_delta, "best_bound": rep.best_bound}, True

    seq = _build_sequence(K, max(ns), args)
    reps = optimize_bound(model, ns, tau=args.tau)
    lams = [r.lambda_n for r in _prefix_lebesgue(K, seq, ns)]
    if args.out_dir:
        d = Path(args.out_dir)
        d.mkdir(parents=True, exist_ok=True)
        for rep in reps:
            (d / ("sweep_n%d.csv" % rep.n)).write_text(_table(
                "delta,G,bound", zip(rep.delta_grid, rep.g_values, rep.bound_values)))
    rows = ["n,lambda,bound,best_delta"]
    rows += [",".join(["%d" % n, _fmt(lam), _fmt(rep.best_bound), _fmt(rep.best_delta)])
             for n, lam, rep in zip(ns, lams, reps)]
    ok = all(lam <= rep.best_bound for lam, rep in zip(lams, reps))
    return _lines(rows), {"all_below_bound": ok}, ok


def _random_instance(rng, q: int, tau: float):
    if q < 1:
        raise ValidationError("q must be at least 1")
    for _ in range(1000):
        pts = np.sort(rng.uniform(-1.0, 1.0, q + 1))
        if np.min(np.diff(pts)) >= 1e-3:
            return SwitchingInstance(tuple(rng.permutation(pts)), tau)
    raise ValidationError("could not draw a separated instance")


def _itau_row(inst: SwitchingInstance) -> tuple[dict, bool]:
    """The instance's JSON row and whether the spread bound holds."""
    spread = check_spread_bound(inst)
    nai = naive_strategy(inst)
    two = two_track_strategy(inst)
    return {
        "q": inst.q, "tau": inst.tau,
        "log_exact": spread.log_exact, "m": len(spread.breakpoints) - 1,
        "breakpoints": list(spread.breakpoints),
        "log_naive": nai.log_value,
        "log_two_track": two.log_value,
        "log_spread_bound": spread.log_bound,
    }, spread.holds


def _every_step_log(q: int, tau: float) -> float:
    """Closed form of log I_tau for the worst-case instance when every step
    switches: q log(1/tau) + (q - 1) log((2 tau + 1) / (tau + 1))."""
    return q * math.log(1.0 / tau) + (q - 1) * math.log((2.0 * tau + 1.0) / (tau + 1.0))


def _cmd_itau(args) -> tuple[str, dict, bool]:
    if args.points_file or args.worst:
        # one instance as JSON; --points-file wins over --worst
        if args.points_file:
            inst = SwitchingInstance.from_json(json.loads(Path(args.points_file).read_text()))
        else:
            inst = worst_case_instance(args.tau, args.q)
        row = _itau_row(inst)[0]
        if not args.points_file:
            row["log_every_step"] = chain_log_value(inst, range(inst.q + 1))
            row["log_every_step_closed_form"] = _every_step_log(inst.q, inst.tau)
        return _json(row), {"log_exact": row["log_exact"]}, True
    if args.seed < 0:
        raise ValidationError("seed must be nonnegative")
    if args.count < 1:
        raise ValidationError("count must be at least 1")
    rng = np.random.default_rng(args.seed)
    lines = ["i,q,log_exact,log_naive,log_two_track,log_spread_bound,holds"]
    bad = 0
    for i in range(args.count):
        row, holds = _itau_row(_random_instance(rng, args.q, args.tau))
        bad += 0 if holds else 1
        lines.append(",".join([
            "%d" % i, "%d" % row["q"], _fmt(row["log_exact"]),
            _fmt(row["log_naive"]), _fmt(row["log_two_track"]),
            _fmt(row["log_spread_bound"]), "1" if holds else "0"]))
    return _lines(lines), {"violations": bad}, bad == 0


def _verify_checks(args):
    """Return (name, callable) pairs; each callable returns (ok, detail)."""
    _check_tau(args.tau)
    K = _build_set(args)
    seq = quasi_leja_sequence(K, 40, args.tau if args.tau < 1.0 else 0.9, rng_seed=args.seed,
                              grid_density=args.grid_density, x0=args.x0)

    def green_interval():
        K = make_union([(-1.0, 1.0)])
        model = build_green_model(K)
        rng = np.random.default_rng(7)
        worst = 0.0
        n = 0
        while n < 25:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if K.dist_to(z) < 1e-2:
                continue
            n += 1
            worst = max(worst, abs(model.value(z) - green_interval_analytic(-1.0, 1.0, z)))
        cap_err = abs(model.capacity - 0.5)
        ok = worst <= 1e-6 and cap_err <= 1e-8
        return ok, "max |g - exact| = %.3e, capacity err = %.3e" % (worst, cap_err)

    def green_union():
        K = make_union([(0.0, 1.0), (2.0, 3.0)])
        model = build_green_model(K)
        on_k = float(np.max(model.value(K.grid(200.0))))
        far = abs(model.value(1e6 + 0.0j)
                  - (math.log(1e6) - math.log(model.capacity)))
        ok = on_k <= 1e-8 and far <= 1e-4
        return ok, "max g on set = %.3e, far field err = %.3e" % (on_k, far)

    def constant():
        lam = switching_constant()
        resid = abs(math.exp(math.exp(lam)) * (math.exp(lam) - 1.0) - 1.0)
        ok = resid <= 1e-10 and 0.2 < lam < 0.25
        return ok, "lam = %.10f, residual = %.3e" % (lam, resid)

    def inequalities():
        rng = np.random.default_rng(11)
        n = 20000
        lam = switching_constant()
        a = rng.uniform(1e-3, 10.0, n)
        b = rng.uniform(1e-3, 10.0, n)
        lo, hi = -np.exp(-lam) * a, np.exp(-lam) * b
        span = rng.uniform(0.0, 5.0, n)
        x = np.where(rng.random(n) < 0.5, lo - span - 1e-9, hi + span + 1e-9)
        m1 = float(np.min(ineq1_log_margin(a, b, x)))
        A = rng.uniform(1e-3, 10.0, n)
        aa = A * rng.uniform(1e-6, 1.0 - 1e-9, n)
        B = rng.uniform(1e-3, 10.0, n)
        m2 = float(np.min(ineq2_log_margin(A, B, aa)))
        m3 = float(np.min(ineq3_log_margin(a, b)))
        r4 = ineq4()
        scan = ineq2_tightness_scan()
        ok = (min(m1, m2, m3) >= -1e-12 and r4.holds
              and abs(scan.best_value - 0.125) <= 1e-9
              and abs(scan.best_b - 3.0) <= 1e-3)
        return ok, "min log margins = %.3e / %.3e / %.3e, exponent sup = %.9f at B = %.4f" \
            % (m1, m2, m3, scan.best_value, scan.best_b)

    def audit():
        target = args.audit_tau if args.audit_tau is not None else seq.tau
        rep = verify_quasi_leja(seq, K, tau=target)
        return rep.ok, "worst ratio = %.6f at step %d (target tau = %g)" \
            % (rep.worst_ratio, rep.worst_step, target)

    def separation():
        rep = check_separation(seq, build_green_model(K))
        return rep.ok, "min gap = %.6e, floor = %.6e" % (rep.min_separation, rep.floor)

    def dp_vs_enumeration():
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(60):
            q = int(rng.integers(2, 9))
            inst = _random_instance(rng, q, float(rng.uniform(0.3, 1.0)))
            worst = max(worst, abs(optimal_switching(inst).log_value
                                   - brute_force_log_min(inst)))
        ok = worst <= 1e-10
        return ok, "max |dp - enumeration| = %.3e over 60 instances" % worst

    def worst_case():
        worst = 0.0
        slack = 0.0
        for tau in (1.0, 0.9, 0.5):
            inst = worst_case_instance(tau, 12)
            every = chain_log_value(inst, range(13))
            closed = _every_step_log(12, tau)
            worst = max(worst, abs(every - closed) / abs(closed))
            slack = max(slack, optimal_switching(inst).log_value - every)
        ok = worst <= 1e-12 and slack <= 1e-9
        return ok, "closed form rel err = %.3e, dp excess = %.3e" % (worst, slack)

    return [("green-interval", green_interval),
            ("green-union", green_union),
            ("switching-constant", constant),
            ("inequalities", inequalities),
            ("sequence-audit", audit),
            ("separation", separation),
            ("dp-vs-enumeration", dp_vs_enumeration),
            ("worst-case-identity", worst_case)]


def _cmd_verify(args) -> tuple[str, dict, bool]:
    lines, failed = [], 0
    for name, fn in _verify_checks(args):
        ok, detail = fn()
        failed += 0 if ok else 1
        lines.append("[verify] %s: %s  (%s)" % (name, "OK" if ok else "FAIL", detail))
    return _lines(lines), {"failed": failed}, failed == 0


_N_RANGE_HELP = ("inclusive range lo:hi, or lo:hi:step for every step-th n from lo; "
                 "all prefixes are scanned in one pass")


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    seq = argparse.ArgumentParser(add_help=False)
    seq.add_argument("--set", dest="set_spec", default=None,
                     help="semicolon separated intervals, e.g. '-1,-0.3;0.3,1'")
    seq.add_argument("--cantor-depth", type=int, default=None,
                     help="use a Cantor-style construction of this depth instead of --set")
    seq.add_argument("--cantor-ratio", type=float, default=1.0 / 3.0)
    seq.add_argument("--tau", type=float, default=1.0,
                     help="quasi admissibility ratio; 1 means exact greedy")
    seq.add_argument("--seed", type=int, default=0)
    seq.add_argument("--grid-density", type=float, default=DEFAULT_GRID_DENSITY,
                     help="grid points per unit length from which --tau < 1 draws; exact "
                          "steps (tau = 1) and the audit use no grid")
    seq.add_argument("--x0", default="right")

    p = argparse.ArgumentParser(
        prog="lejabounds",
        description="Greedy point sequences on unions of intervals, their "
                    "Lebesgue constants, and potential-theoretic bounds.")
    p.add_argument("--config", default=None,
                   help="JSON file of default parameter values; explicit "
                        "flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("points", parents=[seq, out], help="generate a point sequence")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--json", action="store_true",
                    help="emit full JSON instead of CSV")
    sp.set_defaults(func=_cmd_points)

    sp = sub.add_parser("lebesgue", parents=[seq, out],
                        help="Lebesgue constants of sequence prefixes")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--n-range", default=None, help=_N_RANGE_HELP)
    sp.set_defaults(func=_cmd_lebesgue)

    sp = sub.add_parser("bound", parents=[seq, out], help="certified Lebesgue bounds")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--n-range", default=None, help=_N_RANGE_HELP)
    sp.add_argument("--deltas", type=int, default=64,
                    help="delta sweep resolution for single-n mode")
    sp.add_argument("--out-dir", default=None,
                    help="also write per-n delta sweeps here (range mode)")
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("itau", parents=[out], help="switched distance-product functional")
    sp.add_argument("--tau", type=float, default=0.9)
    sp.add_argument("--q", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--worst", action="store_true",
                    help="use the adversarial geometric instance")
    sp.add_argument("--points-file", default=None,
                    help="JSON file with {points: [...], tau: t}")
    sp.set_defaults(func=_cmd_itau)

    sp = sub.add_parser("verify", parents=[seq, out], help="run the invariant suite")
    sp.add_argument("--audit-tau", type=float, default=None,
                    help="audit generated sequences against this tau instead "
                         "of the generating one")
    sp.set_defaults(func=_cmd_verify)
    return p


def _apply_config(parser, args, argv):
    """Parse argv again with the config file's values as the subcommand's
    defaults, so explicit flags win. Values go in as strings, which argparse
    converts and checks exactly as the same flag's (a bad one exits 2).
    On/off flags such as --json take only true or false, and null keeps the
    default.
    Keys that name no option of the subcommand are ignored."""
    if not args.config:
        return args
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    if isinstance(cfg.get("set"), dict):
        # structured set spec, same shape from_spec accepts
        cfg["set"] = ";".join("%r,%r" % iv for iv in from_spec(cfg["set"]).intervals)
    sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    options = {a.dest: a for a in sub._actions}
    dests = {("set_spec" if k == "set" else k.replace("-", "_")): v for k, v in cfg.items()}
    if any(d in options and options[d].nargs == 0 and not isinstance(v, (bool, type(None)))
           for d, v in dests.items()):
        raise ValidationError("on/off options in a config take true, false or null")
    sub.set_defaults(**{d: v if options[d].nargs == 0 else str(v)
                        for d, v in dests.items() if d in options and v is not None})
    return parser.parse_args(argv)


def _join_set_values(argv):
    """argparse reads a word that starts with '-' and is not a plain number
    as an option, so "--set -1,-0.3;0.3,1" would lose its value; it is
    passed on as "--set=-1,-0.3;0.3,1", which argparse takes whole."""
    out = []
    for arg in argv:
        if out and out[-1] == "--set" and re.match(r"-[\d.]", arg):
            out[-1] = "--set=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one subcommand and write its text: to stdout, or to --out with a
    .meta.json sidecar next to it (verify then also echoes to stdout)."""
    argv = _join_set_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config(parser, parser.parse_args(argv), argv)
        if args.command in ("lebesgue", "bound") and not args.n_range and args.n is None:
            parser.error("one of --n or --n-range is required")
        text, summary, ok = args.func(args)
        if args.out is not None:
            out = Path(args.out)
            out.write_text(text)
            params = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
            meta = {"command": args.command, "params": params, "summary": summary}
            out.with_suffix(".meta.json").write_text(json.dumps(
                _finite(meta), indent=2, sort_keys=True, default=str, allow_nan=False) + "\n")
        if args.out is None or args.command == "verify":
            sys.stdout.write(text)
        return 0 if ok else 1
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except GreenBuildError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3


def entry() -> None:
    sys.exit(main())
