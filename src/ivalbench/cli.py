"""Batch front end.

Subcommands: ``laws``, ``extrema``, ``couple``, ``mdp``, ``simulate``,
``sandwich``, ``skiplist-cost``, ``counter-bias``, ``parse``.  Each run
validates its parameters, executes, prints a short summary and exits 0
when all asserted checks pass, 1 on a check failure, 2 on invalid
configuration.  A subcommand returns its exit code, its report and, for
``laws``, ``extrema`` and ``skiplist-cost``, a table; ``main`` times the
run and writes ``--out``: the JSON report, or the table as CSV under
``--format csv``, which only those three accept.  Reports echo their
inputs and render every rational exactly; rerunning with the same
configuration and seed reproduces the report byte for byte apart from the
``elapsed_seconds`` field.  ``IVALBENCH_WORKERS`` is read here alone, as
the default of ``simulate --workers``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from importlib import resources
from itertools import combinations

from ivalbench import comp, coupling, coupling_script, lang, laws, models, report, sched, sexpr

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(Exception):
    pass


def positive_int(name, value, minimum=0):
    if value is None or value < minimum:
        raise ConfigError(f"--{name} must be an integer >= {minimum}")
    return value


def read_option_file(name: str, path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read --{name}: {exc}") from exc


def pick_functional(name):
    if name not in models.FUNCTIONALS:
        raise ConfigError(
            f"unknown functional {name!r}; choose from {sorted(models.FUNCTIONALS)}")
    return models.FUNCTIONALS[name]


def default_workers() -> int:
    """The worker count in ``IVALBENCH_WORKERS`` (default 1)."""
    raw = os.environ.get("IVALBENCH_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"IVALBENCH_WORKERS must be an integer >= 1, not {raw!r}")
    return workers


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, report, table); the table is
# (header, rows) for the subcommands that accept ``--format csv``, else None


def cmd_laws(args):
    cases = positive_int("cases", args.cases, 1)
    results = (laws.run_all(cases, args.seed) if args.suite == "all"
               else laws.run_suite(args.suite, cases, args.seed))
    ok = all(r.passed for r in results)
    rep = {
        "suite": args.suite,
        "cases": args.cases,
        "seed": args.seed,
        "laws": [{"suite": r.suite, "name": r.name, "cases": r.cases,
                  "failures": r.failures} for r in results],
        "passed": ok,
    }
    for r in results:
        status = "ok" if r.passed else f"FAIL {r.failures[:1]}"
        print(f"{r.suite:12s} {r.name:30s} {status}")
    rows = [[r.suite, r.name, r.cases, len(r.failures)] for r in results]
    return (EXIT_OK if ok else EXIT_CHECK_FAILED, rep,
            (["suite", "law", "cases", "failures"], rows))


def cmd_extrema(args):
    n = positive_int("n", args.n)
    mx = positive_int("max", args.max)
    if args.model == "approxN":
        term = models.approx_n(n, positive_int("l", args.l), mx)
        f = lambda v: Fraction(v)
        fname = "identity"
    elif args.model == "approxNprime":
        term = models.approx_n_prime(n, 0, positive_int("l", args.l), mx)
        f = lambda tl: Fraction(tl[0] - tl[1])
        fname = "increments-minus-count"
    else:
        raise ConfigError(f"unknown model {args.model!r} (approxN | approxNprime)")
    lo, hi = comp.extrema(f, term)
    rep = {
        "model": args.model,
        "n": n, "l": args.l, "max": mx,
        "functional": fname,
        "lo": report.frac_str(lo),
        "hi": report.frac_str(hi),
    }
    print(f"{args.model}(n={n}, l={args.l}, max={mx}): lo = {lo}, hi = {hi}")
    return (EXIT_OK, rep,
            (["model", "n", "l", "max", "lo", "lo_dec", "hi", "hi_dec"],
             [[args.model, n, args.l, mx, lo, hi]]))


def cmd_couple(args):
    if args.script:
        text = read_option_file("script", args.script)
        source = args.script
    else:
        text = resources.files("ivalbench.couplings").joinpath("counter_k3.sexp").read_text()
        source = "builtin:counter_k3"
    try:
        derivation = coupling_script.load_script(text)
    except (sexpr.SexprError, coupling_script.ScriptError) as exc:
        raise ConfigError(f"malformed script {source}: {exc}") from exc
    verdict = coupling.check_witness(derivation.goal, derivation.witness)
    rep = {
        "script": source,
        "goal_predicate": derivation.goal.name,
        "witness": report.witness_json(derivation.witness),
        "verdict": report.verdict_json(verdict),
    }
    print(f"coupling from {source}: {'pass' if verdict.passed else 'FAIL'}")
    for f in verdict.failures:
        print(f"  clause {f.clause}: {f.detail}")
    return (EXIT_OK if verdict.passed else EXIT_CHECK_FAILED), rep, None


def build_model_program(args):
    params = {"threads": args.threads, "max": args.max, "bits": args.bits,
              "n": args.n}
    try:
        return models.build_registered(args.model, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_mdp(args):
    prog = build_model_program(args)
    f = pick_functional(args.functional)
    res = sched.extremal_expectation(prog, positive_int("budget", args.budget, 1), f)
    rep = {
        "model": args.model,
        "program": lang.unparse(prog),
        "threads": args.threads, "max": args.max, "bits": args.bits, "n": args.n,
        "budget": args.budget,
        "functional": args.functional,
        "lo": report.frac_str(res.lo),
        "hi": report.frac_str(res.hi),
        "explored_states": res.explored_states,
        "forced_flips": res.forced_flips,
        "fused_steps": res.fused_steps,
        "longest_path": res.longest_path,
    }
    print(f"{args.model}: lo = {res.lo}, hi = {res.hi} "
          f"({res.explored_states} states explored, {res.forced_flips} with a forced flip, "
          f"{res.fused_steps} local steps fused)")
    return EXIT_OK, rep, None


def cmd_simulate(args):
    prog = build_model_program(args)
    f = pick_functional(args.functional)
    if args.sched == "round-robin":
        policy = sched.round_robin()
    elif args.sched == "seeded-random":
        policy = sched.seeded_random(args.sched_seed)
    else:
        raise ConfigError("--sched must be round-robin or seeded-random")
    if args.workers is None:
        workers = default_workers()
    else:
        workers = positive_int("workers", args.workers, 1)
    mc = sched.monte_carlo(prog, policy, positive_int("budget", args.budget, 1), f,
                           positive_int("trials", args.trials, 1), args.seed,
                           workers=workers)
    rep = {
        "model": args.model,
        "threads": args.threads, "max": args.max, "bits": args.bits, "n": args.n,
        "budget": args.budget,
        "scheduler": policy.name,
        "functional": args.functional,
        "trials": mc.trials,
        "seed": args.seed,
        "mean": mc.mean,
        "variance": mc.variance,
        "ci99.7": [mc.ci_lo, mc.ci_hi],
    }
    print(f"{args.model} under {policy.name}: mean = {mc.mean:.6g} "
          f"(3-sigma interval [{mc.ci_lo:.6g}, {mc.ci_hi:.6g}])")
    return EXIT_OK, rep, None


def cmd_sandwich(args):
    threads = positive_int("threads", args.threads, 1)
    mx = positive_int("max", args.max)
    prog = models.unbiased_counter_program(threads, mx)
    spec = models.approx_n(threads, 0, mx)
    rep_obj = sched.soundness_sandwich_check(
        prog, spec, models.read_int, lambda v: Fraction(v),
        positive_int("budget", args.budget, 1))
    rep = {
        "model": "unbiased-counter",
        "threads": threads, "max": mx, "budget": args.budget,
        "spec_min": report.frac_str(rep_obj.spec_min),
        "mdp_lo": report.frac_str(rep_obj.mdp_lo),
        "mdp_hi": report.frac_str(rep_obj.mdp_hi),
        "spec_max": report.frac_str(rep_obj.spec_max),
        "explored_states": rep_obj.explored_states,
        "passed": rep_obj.passed,
    }
    print(f"spec [{rep_obj.spec_min}, {rep_obj.spec_max}] vs "
          f"schedulers [{rep_obj.mdp_lo}, {rep_obj.mdp_hi}]: "
          f"{'pass' if rep_obj.passed else 'FAIL'}")
    return (EXIT_OK if rep_obj.passed else EXIT_CHECK_FAILED), rep, None


def cmd_skiplist_cost(args):
    universe = tuple(args.keys)
    if len(set(universe)) != len(universe):
        raise ConfigError("--keys must be distinct")
    rows = []
    ok = True
    checked = 0
    for size in range(min(len(universe), positive_int("max-size", args.max_size)) + 1):
        for l in combinations(universe, size):
            try:
                spec = models.skip_list_spec(l)
            except ValueError as exc:
                raise ConfigError(f"--keys: {exc}") from exc
            for k in universe:
                cost = lambda tb, k=k: Fraction(models.skipcost(tb[0], tb[1], k))
                hi = comp.ex_max(cost, spec)
                n = sum(1 for i in l if i < k)
                bound = models.skip_cost_bound(n)
                good = hi <= bound
                ok = ok and good
                checked += 1
                rows.append([",".join(map(str, l)) or "-", k, n, hi, bound, good])
    rep = {
        "keys": list(universe),
        "max_size": args.max_size,
        "checked": checked,
        "passed": ok,
        "cases": [{"keys": r[0], "query": r[1], "smaller_keys": r[2],
                   "ex_max": report.frac_str(r[3]), "bound": report.frac_str(r[4]),
                   "ok": r[5]} for r in rows],
    }
    print(f"skip-list cost bound: {checked} cases, "
          f"{'all within bound' if ok else 'VIOLATIONS found'}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED, rep,
            (["keys", "query", "smaller_keys", "ex_max", "ex_max_dec", "bound",
              "bound_dec", "ok"], rows))


def cmd_counter_bias(args):
    threads = positive_int("threads", args.threads, 2)
    bits = positive_int("bits", args.bits, 1)
    prog = models.dlm_counter_program(threads, bits)
    budget = positive_int("budget", args.budget, 1)
    res = sched.extremal_expectation(prog, budget, models.read_pow2_minus_1)
    truth = Fraction(threads)
    lo_pol = sched.extract_policy(res, "lo")
    hi_pol = sched.extract_policy(res, "hi")
    lo_replay = sched.evaluate_policy(prog, lo_pol, budget, models.read_pow2_minus_1)
    hi_replay = sched.evaluate_policy(prog, hi_pol, budget, models.read_pow2_minus_1)
    biased = res.lo != res.hi
    ok = biased and lo_replay == res.lo and hi_replay == res.hi
    rep = {
        "model": "dlm-counter",
        "threads": threads, "bits": bits, "budget": budget,
        "increments": threads,
        "lo": report.frac_str(res.lo),
        "hi": report.frac_str(res.hi),
        "lo_replay": report.frac_str(lo_replay),
        "hi_replay": report.frac_str(hi_replay),
        "explored_states": res.explored_states,
        "forced_flips": res.forced_flips,
        "fused_steps": res.fused_steps,
        "longest_path": res.longest_path,
        "scheduler_dependent": biased,
        "passed": ok,
    }
    print(f"dlm-counter bias: lo = {res.lo}, hi = {res.hi} around true count {truth}; "
          f"extremal policies replay exactly: {lo_replay == res.lo and hi_replay == res.hi}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), rep, None


def cmd_parse(args):
    if args.file:
        sources = {args.file: read_option_file("file", args.file)}
    else:
        sources = {}
        base = resources.files("ivalbench.programs")
        for entry in sorted(base.iterdir(), key=lambda p: p.name):
            if entry.name.endswith(".sexp"):
                sources[entry.name] = entry.read_text()
    ok = True
    items = []
    for (name, text) in sources.items():
        try:
            ast = lang.parse(text)
            printed = lang.unparse(ast)
            stable = lang.parse(printed) == ast and lang.unparse(lang.parse(printed)) == printed
            items.append({"program": name, "ok": stable, "printed": printed})
            ok = ok and stable
            print(f"{name}: {'round-trip ok' if stable else 'ROUND-TRIP FAILED'}")
        except Exception as exc:
            items.append({"program": name, "ok": False, "error": str(exc)})
            ok = False
            print(f"{name}: parse error: {exc}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), {"programs": items, "passed": ok}, None


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ivalbench",
        description="exact workbench for randomized concurrent programs")
    sub = p.add_subparsers(dest="command", required=True)

    def out_opts(sp, table=False):
        sp.add_argument("--out", help="write the JSON report here")
        if table:
            sp.add_argument("--format", choices=["json", "csv"], default="json",
                            help="csv: write the table to --out instead")

    sp = sub.add_parser("laws", help="run the algebraic law suites")
    sp.add_argument("--suite", default="all", choices=("all",) + laws.SUITES)
    sp.add_argument("--cases", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=7)
    out_opts(sp, table=True)
    sp.set_defaults(fn=cmd_laws)

    sp = sub.add_parser("extrema", help="expectation extrema of a monadic model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--max", type=int, default=2)
    out_opts(sp, table=True)
    sp.set_defaults(fn=cmd_extrema)

    sp = sub.add_parser("couple", help="check a coupling derivation script")
    sp.add_argument("--script", help="path to a derivation script "
                                     "(default: the bundled counter coupling)")
    out_opts(sp)
    sp.set_defaults(fn=cmd_couple)

    def model_opts(sp):
        sp.add_argument("--model", required=True)
        sp.add_argument("--threads", type=int, default=2)
        sp.add_argument("--max", type=int, default=2)
        sp.add_argument("--bits", type=int, default=2)
        sp.add_argument("--n", type=int, default=3)
        sp.add_argument("--budget", type=int, default=80)
        sp.add_argument("-f", "--functional", default="read")

    sp = sub.add_parser("mdp", help="scheduler-extremal expected value")
    model_opts(sp)
    out_opts(sp)
    sp.set_defaults(fn=cmd_mdp)

    sp = sub.add_parser("simulate", help="Monte-Carlo estimate under a policy")
    model_opts(sp)
    sp.add_argument("--sched", default="round-robin")
    sp.add_argument("--sched-seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--workers", type=int, default=None,
                    help="default from IVALBENCH_WORKERS")
    out_opts(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sandwich", help="scheduler range against the "
                                         "specification's extrema")
    sp.add_argument("--threads", type=int, default=2)
    sp.add_argument("--max", type=int, default=2)
    sp.add_argument("--budget", type=int, default=80)
    out_opts(sp)
    sp.set_defaults(fn=cmd_sandwich)

    sp = sub.add_parser("skiplist-cost", help="probe-cost bound over a key universe")
    sp.add_argument("--keys", type=int, nargs="+", default=[2, 4, 6, 8, 10])
    sp.add_argument("--max-size", type=int, default=5)
    out_opts(sp, table=True)
    sp.set_defaults(fn=cmd_skiplist_cost)

    sp = sub.add_parser("counter-bias", help="demonstrate scheduler bias of the "
                                             "compare-and-swap counter")
    sp.add_argument("--threads", type=int, default=2)
    sp.add_argument("--bits", type=int, default=2)
    sp.add_argument("--budget", type=int, default=80)
    out_opts(sp)
    sp.set_defaults(fn=cmd_counter_bias)

    sp = sub.add_parser("parse", help="parse/print round-trip of program files")
    sp.add_argument("--file", help="a program file (default: all bundled programs)")
    out_opts(sp)
    sp.set_defaults(fn=cmd_parse)

    return p


def write_out(args, rep: dict, table) -> None:
    """Write ``--out``: the table as CSV under ``--format csv``, else the
    JSON report."""
    try:
        if table is not None and args.format == "csv":
            with open(args.out, "w") as fh:
                fh.write(report.rows_to_csv(*table))
        else:
            report.write_report(rep, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc
    print(f"report written to {args.out}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        (code, rep, table) = args.fn(args)
        rep = {"command": args.command, **rep,
               "elapsed_seconds": round(time.perf_counter() - t0, 3)}
        if args.out:
            write_out(args, rep, table)
        return code
    except (ConfigError, models.FunctionalError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (sched.ScheduleError, coupling.CouplingError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
