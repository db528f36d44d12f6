"""Command line front end.

Subcommands: points, lebesgue, bound, itau, verify. All output is
deterministic for fixed arguments (seeded randomness, no timestamps), so
reruns are byte identical and diffable. Files written via --out get a
sidecar <out>.meta.json recording the effective parameters.

Exit codes: 0 success, 1 a verification or bound check failed, 2 bad usage,
3 the Green's function of the set could not be computed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import _bound, optimize_bound, switching_constant
from .compact_set import CompactSet, ValidationError, cantor_approx, from_spec, make_union
from .green import GreenBuildError, build_green_model, green_interval_analytic
from .inequalities import (ineq1_log_margin, ineq2_log_margin,
                           ineq2_tightness_scan, ineq3_log_margin, ineq4)
from .interp import InterpolationOperator
from .leja import (DEFAULT_GRID_DENSITY, check_separation, leja_sequence,
                   quasi_leja_sequence, verify_quasi_leja)
from .switching import (SwitchingInstance, chain_log_value, brute_force_log_min,
                        check_spread_bound, naive_strategy, optimal_switching,
                        two_track_strategy, worst_case_instance)


def _fmt(v) -> str:
    return repr(float(v))


def _parse_range(spec: str):
    try:
        lo, hi = map(int, spec.split(":", 1) if ":" in spec else (spec, spec))
    except ValueError:
        raise ValidationError("bad range %r" % spec) from None
    if lo < 1 or hi < lo:
        raise ValidationError("bad range %r" % spec)
    return range(lo, hi + 1)


def _build_set(args) -> CompactSet:
    if getattr(args, "cantor_depth", None) is not None:
        return cantor_approx(args.cantor_depth, args.cantor_ratio)
    spec = getattr(args, "set_spec", None)
    if spec:
        pairs = []
        for part in spec.split(";"):
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
    if args.tau >= 1.0:
        return leja_sequence(K, n, x0=args.x0, grid_density=args.grid_density)
    return quasi_leja_sequence(K, n, args.tau, rng_seed=args.seed,
                               x0=args.x0, grid_density=args.grid_density)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_meta(out: str | None, command: str, args, summary: dict):
    if out is None:
        return
    params = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func", "config"):
            continue
        params[k] = v
    meta = {"command": command, "params": params, "summary": summary}
    p = Path(out)
    p.with_suffix(p.suffix + ".meta.json" if p.suffix == "" else ".meta.json") \
        .write_text(json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")


def _add_set_args(sp):
    sp.add_argument("--set", dest="set_spec", default=None,
                    help="semicolon separated intervals, e.g. '-1,-0.3;0.3,1'")
    sp.add_argument("--cantor-depth", type=int, default=None,
                    help="use a Cantor-style construction of this depth instead of --set")
    sp.add_argument("--cantor-ratio", type=float, default=1.0 / 3.0)


def _add_seq_args(sp):
    sp.add_argument("--tau", type=float, default=1.0,
                    help="quasi admissibility ratio; 1 means exact greedy")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid-density", type=float, default=DEFAULT_GRID_DENSITY)
    sp.add_argument("--x0", default="right")


def _cmd_points(args) -> int:
    K = _build_set(args)
    seq = _build_sequence(K, args.n, args)
    if args.json:
        _emit(json.dumps(seq.to_json(), indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = ["index,x"]
        lines += ["%d,%s" % (i, _fmt(x)) for i, x in enumerate(seq.points)]
        _emit("\n".join(lines) + "\n", args.out)
    _write_meta(args.out, "points", args, {
        "n": args.n,
        "min_separation": seq.min_separation(),
        "worst_ratio": min(seq.achieved_ratios) if seq.achieved_ratios else 1.0,
    })
    return 0


def _cmd_lebesgue(args) -> int:
    K = _build_set(args)
    ns = _parse_range(args.n_range) if args.n_range else range(args.n, args.n + 1)
    n_max = max(ns)
    seq = _build_sequence(K, n_max, args)
    lines = ["n,lambda,argmax"]
    worst = 0.0
    for n in ns:
        op = InterpolationOperator.from_sequence(seq, n=n)
        rep = op.lebesgue_constant(K)
        worst = max(worst, rep.lambda_n)
        lines.append("%d,%s,%s" % (n, _fmt(rep.lambda_n), _fmt(rep.argmax_x)))
    _emit("\n".join(lines) + "\n", args.out)
    _write_meta(args.out, "lebesgue", args, {"max_lambda": worst})
    return 0


def _cmd_bound(args) -> int:
    K = _build_set(args)
    model = build_green_model(K)
    if args.n_range is None:
        # single n: delta sweep at tau = 1 and at the requested tau
        n = args.n
        deltas = np.geomspace(1e-4 * K.diam, K.diam, args.deltas)
        rows = ["delta,G,bound_tau1,bound_tau"]
        for d in map(float, deltas):
            g = model.neighborhood_max(d)
            b1 = _bound(K.diam, g, n, d, 1.0)
            bt = _bound(K.diam, g, n, d, args.tau)
            rows.append(",".join([_fmt(d), _fmt(g), _fmt(b1), _fmt(bt)]))
        _emit("\n".join(rows) + "\n", args.out)
        if args.out:
            rep = optimize_bound(model, n, tau=args.tau)
            _write_meta(args.out, "bound", args, {
                "best_delta": rep.best_delta, "best_bound": rep.best_bound})
        return 0

    ns = _parse_range(args.n_range)
    seq = _build_sequence(K, max(ns), args)
    rows = ["n,lambda,bound,best_delta"]
    ok = True
    for n, rep in zip(ns, optimize_bound(model, ns, tau=args.tau)):
        op = InterpolationOperator.from_sequence(seq, n=n)
        lam = op.lebesgue_constant(K).lambda_n
        ok = ok and lam <= rep.best_bound
        rows.append(",".join(["%d" % n, _fmt(lam), _fmt(rep.best_bound),
                              _fmt(rep.best_delta)]))
        if args.out_dir:
            d = Path(args.out_dir)
            d.mkdir(parents=True, exist_ok=True)
            rep.write_csv(d / ("sweep_n%d.csv" % n))
    _emit("\n".join(rows) + "\n", args.out)
    _write_meta(args.out, "bound", args, {"all_below_bound": ok})
    return 0 if ok else 1


def _random_instance(rng, q: int, tau: float):
    if q < 1:
        raise ValidationError("q must be at least 1")
    for _ in range(1000):
        pts = np.sort(rng.uniform(-1.0, 1.0, q + 1))
        if np.min(np.diff(pts)) >= 1e-3:
            return SwitchingInstance(tuple(rng.permutation(pts)), tau)
    raise ValidationError("could not draw a separated instance")


def _itau_row(inst: SwitchingInstance) -> dict:
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
    }


def _cmd_itau(args) -> int:
    if args.points_file:
        obj = json.loads(Path(args.points_file).read_text())
        inst = SwitchingInstance.from_json(obj)
        row = _itau_row(inst)
        _emit(json.dumps(row, indent=2, sort_keys=True) + "\n", args.out)
        _write_meta(args.out, "itau", args, {"log_exact": row["log_exact"]})
        return 0
    if args.worst:
        inst = worst_case_instance(args.tau, args.q)
        row = _itau_row(inst)
        every = chain_log_value(inst, range(inst.q + 1))
        closed = (inst.q * math.log(1.0 / inst.tau)
                  + (inst.q - 1) * math.log((2.0 * inst.tau + 1.0) / (inst.tau + 1.0)))
        row["log_every_step"] = every
        row["log_every_step_closed_form"] = closed
        _emit(json.dumps(row, indent=2, sort_keys=True) + "\n", args.out)
        _write_meta(args.out, "itau", args, {"log_exact": row["log_exact"]})
        return 0
    if args.seed < 0:
        raise ValidationError("seed must be nonnegative")
    rng = np.random.default_rng(args.seed)
    lines = ["i,q,log_exact,log_naive,log_two_track,log_spread_bound,holds"]
    bad = 0
    for i in range(args.count):
        inst = _random_instance(rng, args.q, args.tau)
        row = _itau_row(inst)
        holds = row["log_exact"] <= row["log_spread_bound"] + 1e-9
        bad += 0 if holds else 1
        lines.append(",".join([
            "%d" % i, "%d" % row["q"], _fmt(row["log_exact"]),
            _fmt(row["log_naive"]), _fmt(row["log_two_track"]),
            _fmt(row["log_spread_bound"]), "1" if holds else "0"]))
    _emit("\n".join(lines) + "\n", args.out)
    _write_meta(args.out, "itau", args, {"violations": bad})
    return 0 if bad == 0 else 1


def _verify_checks(args):
    """Yield (name, callable) pairs; each callable returns (ok, detail)."""

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
        K = _build_set(args)
        tau = args.tau if args.tau < 1.0 else 0.9
        seq = quasi_leja_sequence(K, 40, tau, rng_seed=args.seed)
        target = args.audit_tau if args.audit_tau is not None else tau
        rep = verify_quasi_leja(seq, K, tau=target)
        return rep.ok, "worst ratio = %.6f at step %d (target tau = %g)" \
            % (rep.worst_ratio, rep.worst_step, target)

    def separation():
        K = _build_set(args)
        tau = args.tau if args.tau < 1.0 else 0.9
        seq = quasi_leja_sequence(K, 40, tau, rng_seed=args.seed)
        model = build_green_model(K)
        rep = check_separation(seq, model)
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
            closed = 12 * math.log(1.0 / tau) + 11 * math.log((2 * tau + 1) / (tau + 1))
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


def _cmd_verify(args) -> int:
    failed = 0
    out_lines = []
    for name, fn in _verify_checks(args):
        ok, detail = fn()
        failed += 0 if ok else 1
        out_lines.append("[verify] %s: %s  (%s)" % (name, "OK" if ok else "FAIL", detail))
    text = "\n".join(out_lines) + "\n"
    _emit(text, args.out)
    if args.out:
        sys.stdout.write(text)
    _write_meta(args.out, "verify", args, {"failed": failed})
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lejabounds",
        description="Greedy point sequences on unions of intervals, their "
                    "Lebesgue constants, and potential-theoretic bounds.")
    p.add_argument("--config", default=None,
                   help="JSON file of default parameter values; explicit "
                        "flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("points", help="generate a point sequence")
    _add_set_args(sp)
    _add_seq_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--json", action="store_true",
                    help="emit full JSON instead of CSV")
    sp.set_defaults(func=_cmd_points)

    sp = sub.add_parser("lebesgue", help="Lebesgue constants of sequence prefixes")
    _add_set_args(sp)
    _add_seq_args(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--n-range", default=None, help="inclusive range lo:hi")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_lebesgue)

    sp = sub.add_parser("bound", help="certified Lebesgue bounds")
    _add_set_args(sp)
    _add_seq_args(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--n-range", default=None)
    sp.add_argument("--deltas", type=int, default=64,
                    help="delta sweep resolution for single-n mode")
    sp.add_argument("--out", default=None)
    sp.add_argument("--out-dir", default=None,
                    help="also write per-n delta sweeps here (range mode)")
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("itau", help="switched distance-product functional")
    sp.add_argument("--tau", type=float, default=0.9)
    sp.add_argument("--q", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--worst", action="store_true",
                    help="use the adversarial geometric instance")
    sp.add_argument("--points-file", default=None,
                    help="JSON file with {points: [...], tau: t}")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_itau)

    sp = sub.add_parser("verify", help="run the invariant suite")
    _add_set_args(sp)
    _add_seq_args(sp)
    sp.add_argument("--audit-tau", type=float, default=None,
                    help="audit generated sequences against this tau instead "
                         "of the generating one")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)
    return p


def _apply_config(parser, args, argv):
    """Parse argv again with the config file's values as the subcommand's
    defaults, so explicit flags win and argparse converts and checks them.
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
    options = {a.dest for a in sub._actions}
    dests = {("set_spec" if k == "set" else k.replace("-", "_")): v for k, v in cfg.items()}
    sub.set_defaults(**{d: v for d, v in dests.items() if d in options})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config(parser, parser.parse_args(argv), argv)
        if args.command in ("lebesgue", "bound") and not args.n_range and args.n is None:
            parser.error("one of --n or --n-range is required")
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except GreenBuildError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3


def entry() -> None:
    sys.exit(main())
